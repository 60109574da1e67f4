package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// traffic is one workload's traffic mix. The load generator calls request and
// record from one goroutine per client; a workload keeps per-client state
// so those calls need no locking.
type traffic interface {
	// clients is the closed loop's concurrency (capped at nproc).
	clients() int
	// planned is the request count a window reaches at least; the tail
	// percentile is derived from it.
	planned() int
	// warmup is how many untimed requests each client sends before the
	// window; their answers are checked like all others.
	warmup() int
	// prepare generates and encodes the inputs for a seed, before any
	// timing starts.
	prepare(seed uint64, clients int) error
	// setup runs after each sfcpd start and counts toward setup_s.
	setup(ctx context.Context, hc *http.Client, base string) error
	// request builds a client's seq-th request, or returns errExhausted.
	request(ctx context.Context, client, seq int, base string) (*http.Request, error)
	// record parses a reply, keeps what verify needs and reports whether
	// it was a well-formed success.
	record(client, seq int, window bool, status int, body []byte, lat time.Duration) bool
	// verify checks every recorded answer against the library after the
	// server has stopped, and returns how many requests were answered
	// wrongly.
	verify() (int, error)
	// layerMetrics adds the metrics derived from response fields of the
	// window's requests.
	layerMetrics(m map[string]float64)
	// replay replays the workload's first requests in process through the
	// layers' public functions, recording spans in tr and adding the
	// traced metrics; dir is scratch space for a blob store.
	replay(tr *tracer, dir string, m map[string]float64) error
}

var workloadNames = []string{"solve-large", "small-batch", "delta-stream"}

func newWorkload(name string) (traffic, error) {
	switch name {
	case "solve-large":
		return &solveLarge{}, nil
	case "small-batch":
		return &smallBatch{}, nil
	case "delta-stream":
		return &deltaStream{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// errExhausted ends a client's loop when its pre-built inputs run out.
var errExhausted = errors.New("inputs exhausted")

// rootLayer marks a replayed request's root span, whose self time is the
// replay's own glue rather than any layer of sfcpd.
const rootLayer = "request"

// subSeed derives an independent generator seed from the run seed and a
// stream number with a splitmix64-style mix, so inputs depend on nothing
// but --seed.
func subSeed(seed uint64, stream uint64) int64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
