package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer's public function during the
// traced replay. Spans of one replayed request share Req; Parent is the
// ID of the span that made the call (0 for the request's root span).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; the replay is single
// threaded, so it needs no locking.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(req, parent int, layer, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req,
		Layer: layer, Name: name, Start: time.Since(t.origin),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.origin) }

// do times fn as one span under parent.
func (t *tracer) do(req, parent int, layer, name string, fn func()) time.Duration {
	id := t.begin(req, parent, layer, name)
	fn()
	t.end(id)
	s := t.spans[id-1]
	return s.End - s.Start
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children that overlap each
// other are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
	total := time.Duration(0)
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelfP50 sums each request's self time per layer and returns the
// median over requests, in milliseconds, for every layer that has spans.
// A request that never entered a layer counts as zero for it.
func layerSelfP50(spans []span) map[string]float64 {
	self := selfTimes(spans)
	perReq := map[int]map[string]time.Duration{}
	layers := map[string]bool{}
	for _, s := range spans {
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]time.Duration{}
		}
		perReq[s.Req][s.Layer] += self[s.ID]
		layers[s.Layer] = true
	}
	out := map[string]float64{}
	for layer := range layers {
		var xs []float64
		for _, m := range perReq {
			xs = append(xs, ms(m[layer]))
		}
		out[layer] = median(xs)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
