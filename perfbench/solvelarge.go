package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/server"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// solveLarge: one client; each request is a binary POST /solve?algorithm=auto
// of a fresh, never-repeated 2^20-element instance. Requests cycle through
// the paper's three regimes: a random function (the generic case), a
// random permutation (all cycles, Section 3) and a broom (deep trees,
// Section 4). The solver, binary decode, SHA-256 digest, JSON label
// encoding and the blob write-through do the work; the cache never hits
// and the batcher never sees these requests.
type solveLarge struct {
	seed   uint64
	bodies [][]byte
	recs   []largeRec
	ans    answer
	table  []int32
}

const (
	largeN = 1 << 20
	// largePlanned gives the p75 tail ten samples beyond it.
	largePlanned = 40
	// largeBodies are encoded before the window (about 4 MB each); a
	// faster program that needs more encodes them between requests.
	largeBodies = largePlanned + 8
	// largeReplay requests (an equal share of each family) are traced.
	largeReplay = 9
)

var largeFamilies = [3]string{"random-function", "permutation", "broom"}

type largeRec struct {
	done, window          bool
	hash                  uint64
	classes               int
	cached                bool
	latMS                 float64
	planMS, solveMS, elMS float64
}

func (w *solveLarge) clients() int { return 1 }
func (w *solveLarge) planned() int { return largePlanned }
func (w *solveLarge) warmup() int  { return 0 }

// largeInstance is the seq-th request's instance.
func largeInstance(seed uint64, seq int) sfcp.Instance {
	s := subSeed(seed, uint64(seq))
	var wl workload.Instance
	switch seq % 3 {
	case 0:
		wl = workload.RandomFunction(s, largeN, 4)
	case 1:
		wl = workload.RandomPermutation(s, largeN, 4)
	default:
		wl = workload.Broom(s, largeN, 1024, 1024)
	}
	return sfcp.Instance{F: wl.F, B: wl.B}
}

func encodeInstance(ins sfcp.Instance) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(codec.EncodedSize(ins.F, ins.B))
	err := ins.EncodeBinary(&buf)
	return buf.Bytes(), err
}

func (w *solveLarge) prepare(seed uint64, _ int) error {
	w.seed = seed
	w.bodies = make([][]byte, largeBodies)
	for i := range w.bodies {
		b, err := encodeInstance(largeInstance(seed, i))
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}
	return nil
}

func (w *solveLarge) setup(context.Context, *http.Client, string) error { return nil }

func (w *solveLarge) request(ctx context.Context, _, seq int, base string) (*http.Request, error) {
	var body []byte
	if seq < len(w.bodies) {
		body, w.bodies[seq] = w.bodies[seq], nil
	} else {
		var err error
		if body, err = encodeInstance(largeInstance(w.seed, seq)); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve?algorithm=auto", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", sfcp.BinaryMediaType)
	return req, nil
}

func (w *solveLarge) record(_, seq int, window bool, status int, body []byte, lat time.Duration) bool {
	for len(w.recs) <= seq {
		w.recs = append(w.recs, largeRec{})
	}
	if status != http.StatusOK || parseAnswer(body, &w.ans) != nil || len(w.ans.labels) != largeN {
		return false
	}
	r := &w.recs[seq]
	*r = largeRec{done: true, window: window, classes: w.ans.numClasses, cached: w.ans.cached,
		latMS: ms(lat), planMS: w.ans.planMS, solveMS: w.ans.solveMS, elMS: w.ans.elapsedMS}
	r.hash, w.table = canonicalHash(w.ans.labels, w.table)
	return true
}

// verify re-solves every answered instance with the library's linear
// solver (two at a time) and also checks that no two requests carried the
// same instance, so a cache hit on this workload means a broken workload.
func (w *solveLarge) verify() (int, error) {
	var mu sync.Mutex
	wrong := 0
	digests := map[string]int{}
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var table []int32
			for {
				mu.Lock()
				seq := next
				next++
				mu.Unlock()
				if seq >= len(w.recs) {
					return
				}
				r := w.recs[seq]
				if !r.done {
					continue
				}
				ins := largeInstance(w.seed, seq)
				d := ins.Digest()
				res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
				ok := err == nil && !r.cached && res.NumClasses == r.classes
				if ok {
					var h uint64
					h, table = canonicalHash(res.Labels, table)
					ok = h == r.hash
				}
				mu.Lock()
				if prev, dup := digests[d]; dup {
					fmt.Fprintf(os.Stderr, "solve-large: requests %d and %d carried the same instance\n", prev, seq)
					ok = false
				}
				digests[d] = seq
				if !ok {
					wrong++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return wrong, nil
}

func (w *solveLarge) layerMetrics(m map[string]float64) {
	var edge, plan, wait, solve []float64
	for _, r := range w.recs {
		if !r.done || !r.window {
			continue
		}
		edge = append(edge, r.latMS-r.planMS-r.elMS)
		plan = append(plan, r.planMS)
		wait = append(wait, r.elMS-r.solveMS)
		solve = append(solve, r.solveMS)
	}
	m["server.edge_ms_p50"] = median(edge)
	m["engine.plan_ms_p50"] = median(plan)
	m["pool.wait_ms_p50"] = median(wait)
	m["coarsest.solve_ms_p50"] = median(solve)
}

// replay traces the first largeReplay requests through the calls sfcpd
// makes for a binary /solve: decode, digest, plan, solve, label encode and
// blob write of the result, JSON encode of the reply.
func (w *solveLarge) replay(tr *tracer, dir string, m map[string]float64) error {
	blobs, err := store.OpenFileBlobStore(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	solvers := map[sfcp.Algorithm]*sfcp.Solver{}
	solverFor := func(a sfcp.Algorithm) *sfcp.Solver {
		if solvers[a] == nil {
			solvers[a] = sfcp.NewSolver(sfcp.Options{Algorithm: a})
		}
		return solvers[a]
	}
	// Warm the solvers' scratch arenas, as a running sfcpd's are.
	for f := 0; f < 3; f++ {
		ins := largeInstance(w.seed^0xabcdef, f)
		plan, err := sfcp.PlanWith(ins, sfcp.Options{})
		if err != nil {
			return err
		}
		if _, err := solverFor(plan.Algorithm).SolvePlanned(ctx, ins, plan); err != nil {
			return err
		}
	}
	var decode, digest, allocB, allocs, encodeJSON, put []float64
	perFamily := map[string][]float64{}
	for seq := 0; seq < largeReplay; seq++ {
		body, err := encodeInstance(largeInstance(w.seed, seq))
		if err != nil {
			return err
		}
		root := tr.begin(seq, 0, rootLayer, "POST /solve")
		var ins sfcp.Instance
		var derr error
		dt := tr.do(seq, root, "codec", "codec.Reader.Decode", func() {
			ins.F, ins.B, derr = codec.NewReader(bytes.NewReader(body)).Decode()
		})
		if derr != nil {
			return derr
		}
		n := float64(len(ins.F))
		decode = append(decode, float64(dt)/n)
		var d string
		dt = tr.do(seq, root, "sfcp", "sfcp.Instance.Digest", func() { d = ins.Digest() })
		digest = append(digest, float64(dt)/n)
		var plan sfcp.Plan
		var perr error
		tr.do(seq, root, "engine", "sfcp.PlanWith", func() { plan, perr = sfcp.PlanWith(ins, sfcp.Options{}) })
		if perr != nil {
			return perr
		}
		key := store.ResultKey(plan.Algorithm.String(), 0, d)
		tr.do(seq, root, "store", "store.FileBlobStore.Get", func() {
			if rc, err := blobs.Get(key); err == nil {
				rc.Close()
			}
		})
		solver := solverFor(plan.Algorithm)
		var res sfcp.Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dt = tr.do(seq, root, "coarsest", "sfcp.Solver.SolvePlanned", func() { res, perr = solver.SolvePlanned(ctx, ins, plan) })
		runtime.ReadMemStats(&after)
		if perr != nil {
			return perr
		}
		fam := largeFamilies[seq%3]
		perFamily[fam] = append(perFamily[fam], float64(dt)/n)
		allocB = append(allocB, float64(after.TotalAlloc-before.TotalAlloc)/n)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		var labelBuf bytes.Buffer
		tr.do(seq, root, "codec", "sfcp.EncodeLabelsBinary", func() { perr = sfcp.EncodeLabelsBinary(&labelBuf, res.Labels) })
		if perr != nil {
			return perr
		}
		tr.do(seq, root, "store", "store.FileBlobStore.Has", func() { _, perr = blobs.Has(key) })
		if perr != nil {
			return perr
		}
		dt = tr.do(seq, root, "store", "store.FileBlobStore.Put", func() { _, perr = blobs.Put(key, &labelBuf) })
		if perr != nil {
			return perr
		}
		put = append(put, ms(dt))
		resp := server.SolveResponse{
			Algorithm: "auto", ResolvedAlgorithm: plan.Algorithm.String(), PlanReason: plan.Reason,
			PlanWorkers: plan.Workers, Labels: res.Labels, NumClasses: res.NumClasses,
			ElapsedMS: ms(res.Timings.Solve), SolveMS: ms(res.Timings.Solve),
		}
		dt = tr.do(seq, root, "server", "json.Encoder.Encode(SolveResponse)", func() { perr = json.NewEncoder(io.Discard).Encode(resp) })
		if perr != nil {
			return perr
		}
		encodeJSON = append(encodeJSON, float64(dt)/n)
		tr.end(root)
	}
	m["codec.decode_ns_per_elem"] = median(decode)
	m["sfcp.digest_ns_per_elem"] = median(digest)
	for _, fam := range largeFamilies {
		m["coarsest.ns_per_elem."+fam] = median(perFamily[fam])
	}
	m["coarsest.alloc_bytes_per_elem"] = median(allocB)
	m["coarsest.allocs_per_solve"] = median(allocs)
	m["server.json_encode_ns_per_label"] = median(encodeJSON)
	m["store.blob_put_ms"] = median(put)
	return nil
}
