package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 0, Layer: rootLayer, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 0, Layer: "codec", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 0, Layer: "sfcp", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Req: 0, Layer: "store", Start: 15, End: 20},
		{ID: 5, Parent: 1, Req: 0, Layer: "sfcp", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 60, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerSelfP50SumsPerRequest(t *testing.T) {
	const ms1 = time.Millisecond
	spans := []span{
		// request 0: sfcp twice (1+2 ms), codec 4 ms
		{ID: 1, Req: 0, Layer: "sfcp", Start: 0, End: 1 * ms1},
		{ID: 2, Req: 0, Layer: "sfcp", Start: 1 * ms1, End: 3 * ms1},
		{ID: 3, Req: 0, Layer: "codec", Start: 3 * ms1, End: 7 * ms1},
		// request 1: sfcp 5 ms, no codec
		{ID: 4, Req: 1, Layer: "sfcp", Start: 0, End: 5 * ms1},
		// request 2: sfcp 1 ms, codec 2 ms
		{ID: 5, Req: 2, Layer: "sfcp", Start: 0, End: 1 * ms1},
		{ID: 6, Req: 2, Layer: "codec", Start: 1 * ms1, End: 3 * ms1},
	}
	got := layerSelfP50(spans)
	if got["sfcp"] != 3 { // per request 3, 5, 1
		t.Errorf("sfcp p50 = %g, want 3", got["sfcp"])
	}
	if got["codec"] != 2 { // per request 4, 0, 2
		t.Errorf("codec p50 = %g, want 2", got["codec"])
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, rootLayer, "req")
	tr.do(7, root, "sfcp", "child", func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[0]; s.End < tr.spans[1].End || s.Start > tr.spans[1].Start {
		t.Errorf("root %+v does not enclose its child %+v", s, tr.spans[1])
	}
	if got := requestSpans(tr.spans); len(got) != 1 || got[0].Layer != "sfcp" {
		t.Errorf("requestSpans kept %+v", got)
	}
}
