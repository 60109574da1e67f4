package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/server"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// deltaStream: one client. Set-up registers one 2^20-element instance of
// 4096 distinct 256-node cycles through POST /instances; the client then
// sends a chain of single-edit binary deltas, each against the previous
// reply's child digest, with ?labels=false. Half the edits set B, half
// re-point F inside the node's own 256-node group, so every delta dirties
// one small component and the stream stays stationary. The incremental
// re-solve and the per-version O(n) work around it (snapshot, SHA-256 of
// the child, blob write of the child) do the work; the solver pools, the
// cache and the batcher are bypassed.
type deltaStream struct {
	seed       uint64
	base       sfcp.Instance
	baseBody   []byte
	baseDigest string
	edits      []sfcp.Edit
	frames     [][]byte
	last       string
	recs       []deltaRec
	ans        answer
}

const (
	deltaCycles = 4096
	deltaCycle  = 256
	deltaN      = deltaCycles * deltaCycle
	// deltaPlanned gives the p95 tail fifteen samples beyond it.
	deltaPlanned = 300
	// deltaFrames bounds a run's chain (and the cost of checking it).
	deltaFrames = 3000
	deltaWarmup = 10
	deltaReplay = 100
)

type deltaRec struct {
	done, window     bool
	digest           string
	classes          int
	latMS, resolveMS float64
	dirty            int
}

func (w *deltaStream) clients() int { return 1 }
func (w *deltaStream) planned() int { return deltaPlanned }
func (w *deltaStream) warmup() int  { return deltaWarmup }

func (w *deltaStream) prepare(seed uint64, _ int) error {
	w.seed = seed
	wl := workload.DistinctCycles(subSeed(seed, 0), deltaCycles, deltaCycle, 3)
	w.base = sfcp.Instance{F: wl.F, B: wl.B}
	w.baseDigest = w.base.Digest()
	var err error
	if w.baseBody, err = encodeInstance(w.base); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1<<42)))
	w.edits = make([]sfcp.Edit, deltaFrames)
	w.frames = make([][]byte, deltaFrames)
	for j := range w.edits {
		node := rng.Intn(deltaN)
		e := sfcp.Edit{Node: node}
		if j%2 == 0 {
			b := rng.Intn(3)
			e.B = &b
		} else {
			f := node/deltaCycle*deltaCycle + rng.Intn(deltaCycle)
			e.F = &f
		}
		var buf bytes.Buffer
		if err := sfcp.EncodeDeltaBinary(&buf, sfcp.Delta{Edits: []sfcp.Edit{e}}); err != nil {
			return err
		}
		w.edits[j], w.frames[j] = e, buf.Bytes()
	}
	return nil
}

// setup registers the base instance and checks the digest sfcpd gives it.
func (w *deltaStream) setup(ctx context.Context, hc *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/instances?labels=false", bytes.NewReader(w.baseBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", sfcp.BinaryMediaType)
	status, body, err := send(hc, req, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK || parseAnswer(body, &w.ans) != nil {
		return fmt.Errorf("registering the base instance: status %d: %.200s", status, body)
	}
	if w.ans.digest != w.baseDigest {
		return fmt.Errorf("sfcpd registered the base instance as %s, want %s", w.ans.digest, w.baseDigest)
	}
	w.last = w.ans.digest
	return nil
}

func (w *deltaStream) request(ctx context.Context, _, seq int, base string) (*http.Request, error) {
	if seq >= len(w.frames) {
		return nil, errExhausted
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/instances/"+w.last+"/delta?labels=false", bytes.NewReader(w.frames[seq]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", sfcp.DeltaBinaryMediaType)
	return req, nil
}

func (w *deltaStream) record(_, seq int, window bool, status int, body []byte, lat time.Duration) bool {
	for len(w.recs) <= seq {
		w.recs = append(w.recs, deltaRec{})
	}
	if status != http.StatusOK || parseAnswer(body, &w.ans) != nil || w.ans.digest == "" {
		return false
	}
	w.recs[seq] = deltaRec{done: true, window: window, digest: w.ans.digest, classes: w.ans.numClasses,
		latMS: ms(lat), resolveMS: w.ans.resolveMS, dirty: w.ans.dirtyNodes}
	w.last = w.ans.digest
	return true
}

// verify replays the chain locally with sfcp.Resolve and checks each
// reply's child digest and class count.
func (w *deltaStream) verify() (int, error) {
	inc, err := sfcp.NewIncremental(w.base)
	if err != nil {
		return 0, err
	}
	cur := sfcp.Instance{F: slices.Clone(w.base.F), B: slices.Clone(w.base.B)}
	wrong := 0
	for seq, r := range w.recs {
		e := w.edits[seq]
		res, err := sfcp.Resolve(inc, sfcp.Delta{Edits: []sfcp.Edit{e}})
		if err != nil {
			return 0, err
		}
		if e.F != nil {
			cur.F[e.Node] = *e.F
		}
		if e.B != nil {
			cur.B[e.Node] = *e.B
		}
		if r.done && (r.classes != res.NumClasses || r.digest != cur.Digest()) {
			wrong++
		}
	}
	return wrong, nil
}

func (w *deltaStream) layerMetrics(m map[string]float64) {
	var edge, resolve, dirty []float64
	for _, r := range w.recs {
		if !r.done || !r.window {
			continue
		}
		edge = append(edge, r.latMS-r.resolveMS)
		resolve = append(resolve, r.resolveMS)
		dirty = append(dirty, float64(r.dirty))
	}
	m["server.edge_ms_p50"] = median(edge)
	m["incr.resolve_ms_p50"] = median(resolve)
	m["incr.dirty_nodes_mean"] = mean(dirty)
}

// replay traces the registration (as set-up work) and the first
// deltaReplay deltas through the calls sfcpd makes: delta decode,
// incremental resolve, snapshot of the child, its digest, the blob-tier
// probe, encode and write of the child, and the JSON reply.
func (w *deltaStream) replay(tr *tracer, dir string, m map[string]float64) error {
	blobs, err := store.OpenFileBlobStore(dir)
	if err != nil {
		return err
	}
	persist := func(req, root int, digest string, ins sfcp.Instance) (encode, put time.Duration, err error) {
		tr.do(req, root, "store", "store.FileBlobStore.Has", func() { _, err = blobs.Has(digest) })
		if err != nil {
			return 0, 0, err
		}
		var buf bytes.Buffer
		encode = tr.do(req, root, "codec", "sfcp.Instance.EncodeBinary", func() { err = ins.EncodeBinary(&buf) })
		if err != nil {
			return 0, 0, err
		}
		put = tr.do(req, root, "store", "store.FileBlobStore.Put", func() { _, err = blobs.Put(digest, &buf) })
		return encode, put, err
	}

	// Registration is set-up work: its spans carry request ID -1.
	root := tr.begin(-1, 0, rootLayer, "POST /instances")
	var ins sfcp.Instance
	tr.do(-1, root, "codec", "codec.Reader.Decode", func() {
		ins.F, ins.B, err = codec.NewReader(bytes.NewReader(w.baseBody)).Decode()
	})
	if err != nil {
		return err
	}
	var d string
	tr.do(-1, root, "sfcp", "sfcp.Instance.Digest", func() { d = ins.Digest() })
	var inc *sfcp.Incremental
	reg := tr.do(-1, root, "incr", "sfcp.NewIncremental", func() { inc, err = sfcp.NewIncremental(ins) })
	if err != nil {
		return err
	}
	m["incr.register_ms"] = ms(reg)
	if _, _, err := persist(-1, root, d, ins); err != nil {
		return err
	}
	tr.end(root)

	var encode, snapshot, digest, put []float64
	for seq := 0; seq < min(deltaReplay, len(w.frames)); seq++ {
		root := tr.begin(seq, 0, rootLayer, "POST /instances/{digest}/delta")
		var delta sfcp.Delta
		tr.do(seq, root, "codec", "sfcp.DecodeDeltaBinary", func() { delta, err = sfcp.DecodeDeltaBinary(bytes.NewReader(w.frames[seq])) })
		if err != nil {
			return err
		}
		var res sfcp.Result
		tr.do(seq, root, "incr", "sfcp.Resolve", func() { res, err = sfcp.Resolve(inc, delta) })
		if err != nil {
			return err
		}
		var child sfcp.Instance
		dt := tr.do(seq, root, "sfcp", "sfcp.Incremental.Instance", func() { child = inc.Instance() })
		snapshot = append(snapshot, ms(dt))
		var cd string
		dt = tr.do(seq, root, "sfcp", "sfcp.Instance.Digest", func() { cd = child.Digest() })
		digest = append(digest, float64(dt)/deltaN)
		enc, p, err := persist(seq, root, cd, child)
		if err != nil {
			return err
		}
		encode, put = append(encode, float64(enc)/deltaN), append(put, ms(p))
		resp := server.DeltaResponse{ParentDigest: d, Digest: cd, N: deltaN, NumClasses: res.NumClasses,
			Resolve: res.Resolve, ResolveMS: ms(res.Resolve.Duration)}
		tr.do(seq, root, "server", "json.Encoder.Encode(DeltaResponse)", func() { err = json.NewEncoder(io.Discard).Encode(resp) })
		if err != nil {
			return err
		}
		if seq < len(w.recs) && w.recs[seq].done && w.recs[seq].digest != cd {
			return errors.New("the replayed chain diverged from the measured one")
		}
		d = cd
		tr.end(root)
	}
	m["codec.encode_ns_per_elem"] = median(encode)
	m["sfcp.snapshot_ms"] = median(snapshot)
	m["sfcp.digest_ns_per_elem"] = median(digest)
	m["store.blob_put_ms"] = median(put)
	return nil
}
