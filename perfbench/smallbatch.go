package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"sfcp"
	"sfcp/internal/server"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// smallBatch: two clients; each request is a JSON POST /solve/batch of 64
// random-function members of 16 to 1024 elements, drawn Zipf(1.1) from a
// pool of 4096 distinct instances, four times the default 1024-entry
// result cache. The JSON edge, the digest, the result cache and the
// coalescing batcher do the work; each solve is small.
type smallBatch struct {
	seed    uint64
	pool    []sfcp.Instance
	frags   [][]byte // each member's JSON, encoded before the window
	ref     [][]int  // the library's labels per pool member
	refHash []uint64
	cl      []*batchClient
}

const (
	batchPool    = 4096
	batchMembers = 64
	// batchPlanned gives the p99 tail twenty samples beyond it.
	batchPlanned = 2000
	batchWarmup  = 150
	batchReplay  = 200
)

type batchClient struct {
	zipf  *rand.Zipf
	recs  []batchRec
	ans   []answer
	table []int32
	body  []byte
}

type batchRec struct {
	done, window bool
	latMS        float64
	members      [batchMembers]uint16
	got          [batchMembers]memberGot
}

type memberGot struct {
	hash                  uint64
	classes               int32
	cached                bool
	planMS, solveMS, elMS float32
}

func (w *smallBatch) clients() int { return 2 }
func (w *smallBatch) planned() int { return batchPlanned }
func (w *smallBatch) warmup() int  { return batchWarmup }

func (w *smallBatch) prepare(seed uint64, clients int) error {
	w.seed = seed
	w.pool = make([]sfcp.Instance, batchPool)
	w.frags = make([][]byte, batchPool)
	w.ref = make([][]int, batchPool)
	w.refHash = make([]uint64, batchPool)
	var table []int32
	for j := range w.pool {
		// Member j is the j-th most popular; its size depends on its rank
		// alone, so every seed puts the same mix of sizes in front of the
		// cache and only the instances' contents change with the seed.
		n := 16 << (j % 7)
		wl := workload.RandomFunction(subSeed(seed, uint64(j)), n, 4)
		ins := sfcp.Instance{F: wl.F, B: wl.B}
		frag, err := json.Marshal(server.SolveRequest{F: ins.F, B: ins.B})
		if err != nil {
			return err
		}
		res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		if err != nil {
			return err
		}
		w.pool[j], w.frags[j], w.ref[j] = ins, frag, res.Labels
		w.refHash[j], table = canonicalHash(res.Labels, table)
	}
	w.cl = make([]*batchClient, clients)
	for c := range w.cl {
		r := rand.New(rand.NewSource(subSeed(seed, 1<<41+uint64(c))))
		w.cl[c] = &batchClient{zipf: rand.NewZipf(r, 1.1, 1, batchPool-1)}
	}
	return nil
}

func (w *smallBatch) setup(context.Context, *http.Client, string) error { return nil }

// members draws the seq-th request's members of a client. Requests are
// drawn in sequence order, so a client's stream depends only on the seed.
func (w *smallBatch) members(c, seq int) *batchRec {
	cl := w.cl[c]
	for len(cl.recs) <= seq {
		var r batchRec
		for i := range r.members {
			r.members[i] = uint16(cl.zipf.Uint64())
		}
		cl.recs = append(cl.recs, r)
	}
	return &cl.recs[seq]
}

// batchBody assembles a request body from the pre-encoded members.
func (w *smallBatch) batchBody(dst []byte, r *batchRec) []byte {
	dst = append(dst[:0], `{"algorithm":"auto","instances":[`...)
	for i, j := range r.members {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, w.frags[j]...)
	}
	return append(dst, "]}"...)
}

func (w *smallBatch) request(ctx context.Context, c, seq int, base string) (*http.Request, error) {
	cl := w.cl[c]
	cl.body = w.batchBody(cl.body, w.members(c, seq))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve/batch", bytes.NewReader(cl.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (w *smallBatch) record(c, seq int, window bool, status int, body []byte, lat time.Duration) bool {
	cl := w.cl[c]
	r := &cl.recs[seq]
	if status != http.StatusOK {
		return false
	}
	var err error
	cl.ans, err = parseBatch(body, cl.ans)
	if err != nil || len(cl.ans) != batchMembers {
		return false
	}
	for i := range cl.ans {
		a := &cl.ans[i]
		if a.errMsg != "" {
			return false
		}
		g := &r.got[i]
		g.hash, cl.table = canonicalHash(a.labels, cl.table)
		g.classes, g.cached = int32(a.numClasses), a.cached
		g.planMS, g.solveMS, g.elMS = float32(a.planMS), float32(a.solveMS), float32(a.elapsedMS)
	}
	r.done, r.window, r.latMS = true, window, ms(lat)
	return true
}

func (w *smallBatch) verify() (int, error) {
	wrong := 0
	for _, cl := range w.cl {
		for _, r := range cl.recs {
			if !r.done {
				continue
			}
			for i, j := range r.members {
				if g := r.got[i]; g.hash != w.refHash[j] || int(g.classes) != sfcp.NumClasses(w.ref[j]) {
					wrong++
					break
				}
			}
		}
	}
	return wrong, nil
}

// layerMetrics: a batch's members run concurrently inside sfcpd, so the
// edge is the latency minus the slowest member's elapsed_ms (which, on
// the coalesced path, already contains the member's plan). Plan, solve
// and wait are per solved (uncached) member.
func (w *smallBatch) layerMetrics(m map[string]float64) {
	var edge, plan, solve, wait []float64
	for _, cl := range w.cl {
		for _, r := range cl.recs {
			if !r.done || !r.window {
				continue
			}
			slowest := 0.0
			for _, g := range r.got {
				if g.cached {
					continue
				}
				slowest = max(slowest, float64(g.elMS))
				plan = append(plan, float64(g.planMS))
				solve = append(solve, float64(g.solveMS))
				wait = append(wait, float64(g.elMS-g.solveMS))
			}
			edge = append(edge, r.latMS-slowest)
		}
	}
	m["server.edge_ms_p50"] = median(edge)
	m["engine.plan_ms_p50"] = median(plan)
	m["coarsest.solve_ms_p50"] = median(solve)
	m["pool.wait_ms_p50"] = median(wait)
}

// replay traces client 0's first batchReplay requests through the calls
// sfcpd makes for a JSON batch: decode, per-member digest, a blob-tier
// probe and one planned batch solve for the members the cache did not
// answer in the measured run, and the JSON reply.
func (w *smallBatch) replay(tr *tracer, dir string, m map[string]float64) error {
	blobs, err := store.OpenFileBlobStore(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	solver := sfcp.NewSolver(sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	cl := w.cl[0]
	var decode []float64
	var digestNS, elems, batchNS, solved, encodeNS, labels float64
	var body []byte
	for seq := 0; seq < min(batchReplay, len(cl.recs)); seq++ {
		r := &cl.recs[seq]
		if !r.done {
			continue
		}
		body = w.batchBody(body, r)
		root := tr.begin(seq, 0, rootLayer, "POST /solve/batch")
		var req server.BatchRequest
		var perr error
		dt := tr.do(seq, root, "server", "json.Decoder.Decode(BatchRequest)", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			perr = dec.Decode(&req)
		})
		if perr != nil {
			return perr
		}
		decode = append(decode, ms(dt))
		digests := make([]string, len(req.Instances))
		dt = tr.do(seq, root, "sfcp", "sfcp.Instance.Digest", func() {
			for i, in := range req.Instances {
				digests[i] = sfcp.Instance{F: in.F, B: in.B}.Digest()
				elems += float64(len(in.F))
			}
		})
		digestNS += float64(dt)
		var miss []sfcp.Instance
		var missAt []int
		for i, in := range req.Instances {
			if !r.got[i].cached {
				miss, missAt = append(miss, sfcp.Instance{F: in.F, B: in.B}), append(missAt, i)
			}
		}
		resp := server.BatchResponse{Results: make([]server.SolveResponse, len(req.Instances))}
		for i := range resp.Results {
			resp.Results[i] = server.SolveResponse{Algorithm: "auto", ResolvedAlgorithm: "linear",
				Labels: w.ref[r.members[i]], NumClasses: int(r.got[i].classes), Cached: true}
		}
		if len(miss) > 0 {
			tr.do(seq, root, "store", "store.FileBlobStore.Get", func() {
				for _, i := range missAt {
					if rc, err := blobs.Get(store.ResultKey("linear", 0, digests[i])); err == nil {
						rc.Close()
					}
				}
			})
			var plan sfcp.Plan
			var results []sfcp.Result
			var errs []error
			dt = tr.do(seq, root, "engine", "sfcp.PlanBatch", func() { plan, perr = sfcp.PlanBatch(miss, sfcp.Options{}) })
			if perr != nil {
				return perr
			}
			batchNS += float64(dt)
			dt = tr.do(seq, root, "coarsest", "sfcp.Solver.SolveBatchPlanned", func() {
				results, errs = solver.SolveBatchPlanned(ctx, miss, plan)
			})
			batchNS += float64(dt)
			solved += float64(len(miss))
			for k, i := range missAt {
				if errs[k] != nil {
					return errs[k]
				}
				resp.Results[i].Labels, resp.Results[i].Cached = results[k].Labels, false
				resp.Results[i].SolveMS = ms(results[k].Timings.Solve)
			}
		}
		for _, res := range resp.Results {
			labels += float64(len(res.Labels))
		}
		dt = tr.do(seq, root, "server", "json.Encoder.Encode(BatchResponse)", func() { perr = json.NewEncoder(io.Discard).Encode(resp) })
		if perr != nil {
			return perr
		}
		encodeNS += float64(dt)
		tr.end(root)
	}
	m["server.json_decode_ms"] = median(decode)
	m["sfcp.digest_ns_per_elem"] = ratio(digestNS, elems)
	m["coarsest.batch_us_per_member"] = ratio(batchNS/1000, solved)
	m["server.json_encode_ns_per_label"] = ratio(encodeNS, labels)
	return nil
}
