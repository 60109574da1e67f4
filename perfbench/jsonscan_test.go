package main

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/server"
)

// The hand-rolled reader must see in sfcpd's real reply types what
// encoding/json sees.
func TestParseAnswerReadsSolveReplies(t *testing.T) {
	resp := server.SolveResponse{
		Algorithm: "auto", ResolvedAlgorithm: "linear", PlanReason: `auto: "quoted" \ reason`,
		PlanWorkers: 1, Labels: []int{0, 1, 0, 2, 10}, NumClasses: 4, ElapsedMS: 1.5,
		PlanMS: 0.25, SolveMS: 1.25e-3, Stats: &sfcp.Stats{Rounds: 3},
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var a answer
	if err := parseAnswer(body, &a); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.labels, []int32{0, 1, 0, 2, 10}) || a.numClasses != 4 || a.cached ||
		a.elapsedMS != 1.5 || a.planMS != 0.25 || a.solveMS != 1.25e-3 {
		t.Fatalf("parsed %+v", a)
	}
}

func TestParseAnswerReadsDeltaReplies(t *testing.T) {
	resp := server.DeltaResponse{
		ParentDigest: "aa", Digest: "bb", N: 9, NumClasses: 3,
		Resolve:   &sfcp.ResolveInfo{Mode: "incremental", DirtyNodes: 256, DirtyFrac: 0.001, Duration: time.Millisecond},
		ResolveMS: 6.5,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var a answer
	if err := parseAnswer(body, &a); err != nil {
		t.Fatal(err)
	}
	if a.digest != "bb" || a.numClasses != 3 || a.dirtyNodes != 256 || a.resolveMS != 6.5 {
		t.Fatalf("parsed %+v", a)
	}
}

func TestParseBatchReadsEveryMember(t *testing.T) {
	resp := server.BatchResponse{Results: []server.SolveResponse{
		{Algorithm: "auto", Labels: []int{0, 0}, NumClasses: 1, Cached: true},
		{Algorithm: "auto", Labels: []int{0, 1, 2}, NumClasses: 3, QueueMS: 0.5, Coalesced: 4, FlushReason: "deadline"},
		{Algorithm: "auto", Error: "bad instance"},
	}, Errors: 1}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	as, err := parseBatch(body, make([]answer, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 || !as[0].cached || !slices.Equal(as[1].labels, []int32{0, 1, 2}) ||
		as[2].errMsg != "bad instance" || len(as[2].labels) != 0 {
		t.Fatalf("parsed %+v", as)
	}
}

func TestParseAnswerRejectsTruncatedReplies(t *testing.T) {
	body := []byte(`{"algorithm":"auto","labels":[0,1,`)
	var a answer
	if err := parseAnswer(body, &a); err == nil {
		t.Fatal("truncated reply accepted")
	}
}
