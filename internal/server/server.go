// Package server implements sfcpd's HTTP API: a batching
// partition-solving service over the sfcp library. Endpoints:
//
//	POST /solve                     one instance
//	POST /solve/batch               many instances, solved concurrently
//	POST /instances                 register a versioned instance (solve + content address)
//	POST /instances/{digest}/delta  apply edits to a version, solved incrementally
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus-style counters
//
// Bodies are JSON by default; POST routes also accept
// Content-Type: application/x-sfcp — the binary wire format of
// internal/codec — with ?algorithm= and ?seed= query parameters. Binary
// uploads are decoded in fixed-size chunks with their XXH64 integrity
// trailers verified as the bytes stream (never a buffered body copy), and
// /solve/batch shards a stream of concatenated instances into batch
// members as they arrive. Cache keys use the SHA-256 content address for
// both formats, so a collision-crafted wire digest cannot poison the
// cache and either format hits entries the other populated.
//
// Every request's algorithm is first resolved by the library's planner
// ("auto" becomes the sequential linear-time solver), and the
// resolved algorithm keys everything downstream: requests are scheduled
// onto bounded per-algorithm worker pools and results are memoized in an
// LRU keyed by (resolved algorithm, seed, instance digest), so hot
// instances — the "millions of users asking the same question" regime —
// are served without recomputation, and an "auto" request shares its
// entry with the explicit request it resolves to. Responses report the
// resolved algorithm and the planner's reason.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/batcher"
	"sfcp/internal/codec"
	"sfcp/internal/jobs"
	"sfcp/internal/store"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// WorkersPerAlgorithm is the number of solver goroutines dedicated to
	// each algorithm's queue (default 2).
	WorkersPerAlgorithm int
	// QueueDepth bounds each algorithm's pending-job queue
	// (default 4 * WorkersPerAlgorithm).
	QueueDepth int
	// CacheSize bounds the result LRU in entries (default 1024; negative
	// disables caching).
	CacheSize int
	// MaxN rejects instances larger than this many elements (default 1<<20).
	MaxN int
	// MaxBatch rejects batches with more members than this (default 256).
	MaxBatch int
	// Workers is the host-goroutine budget per solve (0 = NumCPU).
	Workers int
	// Seed is the default simulator seed; requests may override it.
	Seed uint64
	// MaxBodyBytes bounds a request body before JSON decoding (default
	// 64 MiB) — MaxN and MaxBatch only cut in after a body has been
	// decoded, so this is the limit that actually bounds memory.
	MaxBodyBytes int64
	// JobTTL is how long finished async jobs (and their results) are
	// retained for fetching before eviction (default 10 minutes).
	JobTTL time.Duration
	// JobMaxQueued bounds async jobs waiting across all algorithms
	// (default 1024); Submit beyond it returns 429.
	JobMaxQueued int
	// BatchMaxWait bounds how long a small solve waits in the coalescing
	// front door for batch companions before its micro-batch flushes
	// anyway (default 1ms; negative disables coalescing entirely).
	BatchMaxWait time.Duration
	// BatchMaxSize flushes a coalescing micro-batch once it holds this
	// many requests (default 64).
	BatchMaxSize int
	// BatchMaxN is the largest instance (elements) eligible for
	// coalescing; bigger requests take the per-request pool path
	// (default sfcp.LinearCrossoverN - 1 = 32767, the small-request
	// regime).
	BatchMaxN int
	// JobStore, when set, journals async job submissions and state
	// transitions so a restart over the same store recovers them:
	// non-terminal jobs re-queue, terminal ones stay fetchable. Both
	// stores are typically opened by sfcpd from -data-dir; nil keeps the
	// in-memory behavior.
	JobStore store.JobStore
	// BlobStore, when set, is the content-addressed durable tier for
	// instance payloads and solved results. The solve path consults it
	// after a RAM-cache miss and persists spilled results into it.
	BlobStore store.BlobStore
	// SpillN is the instance size (elements) at or above which payloads
	// and results are released from RAM once persisted to the blob tier
	// (default 1<<16; only meaningful with BlobStore).
	SpillN int
	// CacheBytes additionally bounds the result LRU by estimated
	// resident bytes (0 = entries-only, the original behavior).
	CacheBytes int64
	// InstanceSessions bounds how many incremental solve sessions (the
	// versioned-instance API's resident decomposition states, each O(n)
	// memory) stay live at once (default 32; negative disables
	// residency — every delta rebuilds from the blob tier).
	InstanceSessions int
	// Logf receives storage and recovery diagnostics (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.WorkersPerAlgorithm <= 0 {
		c.WorkersPerAlgorithm = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.WorkersPerAlgorithm
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.BatchMaxWait == 0 {
		c.BatchMaxWait = time.Millisecond
	}
	if c.BatchMaxSize <= 0 {
		c.BatchMaxSize = 64
	}
	if c.BatchMaxN <= 0 {
		c.BatchMaxN = sfcp.LinearCrossoverN - 1
	}
	if c.SpillN <= 0 {
		c.SpillN = 1 << 16
	}
	if c.InstanceSessions == 0 {
		c.InstanceSessions = 32
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SolveRequest is the JSON body of POST /solve and a member of a batch.
type SolveRequest struct {
	// Algorithm names the solver (Algorithm.String values); empty means
	// the batch default, or "auto".
	Algorithm string `json:"algorithm,omitempty"`
	// F is the function table: F[x] in [0, n).
	F []int `json:"f"`
	// B is the initial partition label per element.
	B []int `json:"b"`
	// Seed overrides the server's simulator seed when set.
	Seed *uint64 `json:"seed,omitempty"`
}

// SolveResponse is the JSON reply for one instance. Algorithm echoes what
// the request asked for; ResolvedAlgorithm is what the planner actually
// ran (they differ exactly when the request said "auto"), with PlanReason
// explaining the choice.
type SolveResponse struct {
	Algorithm         string      `json:"algorithm"`
	ResolvedAlgorithm string      `json:"resolved_algorithm,omitempty"`
	PlanReason        string      `json:"plan_reason,omitempty"`
	PlanWorkers       int         `json:"plan_workers,omitempty"`
	Labels            []int       `json:"labels,omitempty"`
	NumClasses        int         `json:"num_classes"`
	Cached            bool        `json:"cached"`
	ElapsedMS         float64     `json:"elapsed_ms"`
	PlanMS            float64     `json:"plan_ms,omitempty"`
	SolveMS           float64     `json:"solve_ms,omitempty"`
	ResolveMS         float64     `json:"resolve_ms,omitempty"`
	Stats             *sfcp.Stats `json:"stats,omitempty"`
	Error             string      `json:"error,omitempty"`

	// Coalescing front-door fields, set when the request was served
	// through the micro-batcher: how many requests shared the flush, why
	// the flush fired ("size" or "deadline"), and the queue wait — the
	// latency the request spent coalescing, separable from SolveMS.
	Coalesced   int     `json:"coalesced,omitempty"`
	FlushReason string  `json:"flush_reason,omitempty"`
	QueueMS     float64 `json:"queue_ms,omitempty"`

	// transient marks server-side failures (shutdown, cancellation) that
	// deserve a 503 rather than a 400; never serialized.
	transient bool
}

// BatchRequest is the JSON body of POST /solve/batch.
type BatchRequest struct {
	// Algorithm is the default solver for members that leave theirs empty.
	Algorithm string         `json:"algorithm,omitempty"`
	Instances []SolveRequest `json:"instances"`
}

// BatchResponse holds positional results; failed members carry Error and
// do not fail their siblings.
type BatchResponse struct {
	Results []SolveResponse `json:"results"`
	Errors  int             `json:"errors"`
}

// Server is the http.Handler implementing the sfcpd API.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	pool    *pool
	cache   *resultCache
	metrics *metrics
	solvers map[sfcp.Algorithm]*sfcp.Solver
	jobs    *jobs.Manager
	logf    func(format string, args ...any)

	// sessions holds the versioned-instance API's resident incremental
	// solve states, keyed by the digest of the version each represents.
	sessions *sessionRegistry

	// blobs is the metered durable result tier (nil in zero-config mode);
	// the meter wraps the configured BlobStore so job-manager and
	// solve-path traffic both land in the sfcpd_store_* counters.
	blobs *store.Metered

	// coalescer micro-batches small solves (nil when disabled); stop
	// cancels the lifecycle context it derives from.
	coalescer *batcher.Batcher
	stop      context.CancelFunc
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		pool:    newPool(cfg.WorkersPerAlgorithm, cfg.QueueDepth),
		cache:   newResultCache(cfg.CacheSize, cfg.CacheBytes),
		metrics: newMetrics(),
		solvers: map[sfcp.Algorithm]*sfcp.Solver{},
		logf:    cfg.Logf,

		sessions: newSessionRegistry(cfg.InstanceSessions),
	}
	// The meter wraps the blob tier once so every consumer — the job
	// manager's spill/reload traffic and the solve path's read/write
	// through — shares one set of counters. jobBlobs stays a nil
	// interface (not a typed-nil *Metered) when there is no tier.
	var jobBlobs store.BlobStore
	if cfg.BlobStore != nil {
		s.blobs = store.NewMetered(cfg.BlobStore)
		jobBlobs = s.blobs
	}
	// One solver (scratch-arena pool) per concrete algorithm; "auto" never
	// reaches this map — solveResult resolves it first.
	for _, algo := range sfcp.Algorithms() {
		if algo == sfcp.AlgorithmAuto {
			continue
		}
		s.solvers[algo] = sfcp.NewSolver(sfcp.Options{
			Algorithm: algo, Workers: cfg.Workers, Seed: cfg.Seed,
		})
	}
	// Async jobs run through the same solveResult path as synchronous
	// requests — one dispatcher per pool worker so the job subsystem can
	// keep every worker busy without overflowing the pool queues.
	s.jobs = jobs.New(jobs.Config{
		MaxQueued:               cfg.JobMaxQueued,
		DispatchersPerAlgorithm: cfg.WorkersPerAlgorithm,
		TTL:                     cfg.JobTTL,
		Journal:                 cfg.JobStore,
		Blobs:                   jobBlobs,
		SpillN:                  cfg.SpillN,
		DefaultSeed:             cfg.Seed,
		Logf:                    cfg.Logf,
	}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance) (sfcp.Result, bool, error) {
		out := s.solveResult(ctx, algo, seed, ins)
		return out.res, out.cached, out.err
	})
	// The coalescing front door: small solves (synchronous and async —
	// job dispatchers land in the same solveResult) accumulate into
	// micro-batches that solve as one planned run under a shared scratch
	// arena. Its lifecycle context is the server's root, cancelled in
	// Close before the pool stops.
	if cfg.BatchMaxWait >= 0 {
		//sfcpvet:ignore ctxpath -- the server's lifecycle root, cancelled in Close; the coalescer's context derives from it
		lifecycle, cancel := context.WithCancel(context.Background())
		s.stop = cancel
		s.coalescer = batcher.New(lifecycle, batcher.Config{
			MaxWait: cfg.BatchMaxWait,
			MaxSize: cfg.BatchMaxSize,
			Run:     s.runCoalesced,
			Observe: s.metrics.batcherFlush,
		})
	}
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/solve/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /instances", s.handleInstanceCreate)
	s.mux.HandleFunc("POST /instances/{digest}/delta", s.handleInstanceDelta)
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the job manager (cancelling running jobs), then the
// coalescer (queued micro-batch members fail with its shutdown error),
// then the worker pool. In-flight requests finish; queued ones fail.
func (s *Server) Close() {
	s.jobs.Close()
	if s.coalescer != nil {
		s.coalescer.Close()
		s.stop()
	}
	s.pool.close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("healthz")
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	jc := s.jobs.Counts()
	fmt.Fprint(w, s.metrics.render())
	fmt.Fprint(w, renderJobs(jc))
	fmt.Fprint(w, renderStore(s.blobCounts(), jc, s.journalCorrupt(), s.cache.Bytes()))
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("solve")
	if r.Method != http.MethodPost {
		s.fail(w, "solve", http.StatusMethodNotAllowed, "POST required")
		return
	}
	if isBinary(r) {
		s.handleSolveBinary(w, r)
		return
	}
	var req SolveRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.fail(w, "solve", decodeStatus(err), err.Error())
		return
	}
	s.writeSolveResult(w, "solve", s.solveOne(r.Context(), req, ""))
}

// writeSolveResult maps a single-solve outcome onto HTTP: client mistakes
// become 400, transient server-side failures 503, successes 200.
func (s *Server) writeSolveResult(w http.ResponseWriter, route string, resp SolveResponse) {
	if resp.Error != "" {
		code := http.StatusBadRequest
		if resp.transient {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, route, code, resp.Error)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runBatch solves n members concurrently and writes the positional
// BatchResponse; failed members carry Error without failing siblings.
func (s *Server) runBatch(w http.ResponseWriter, n int, solve func(i int) SolveResponse) {
	resp := BatchResponse{Results: make([]SolveResponse, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Results[i] = solve(i)
		}(i)
	}
	wg.Wait()
	for i := range resp.Results {
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	if resp.Errors > 0 {
		s.metrics.error("batch")
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSolveBinary serves POST /solve with a Content-Type:
// application/x-sfcp body holding exactly one wire-format instance.
// Algorithm and seed travel as query parameters.
func (s *Server) handleSolveBinary(w http.ResponseWriter, r *http.Request) {
	algo, seed, err := binaryParams(r)
	if err != nil {
		s.fail(w, "solve", http.StatusBadRequest, err.Error())
		return
	}
	dec, body := s.binaryDecoder(w, r)
	defer func() { s.metrics.ingest("binary", body.n) }()
	ins, err := decodeSingleBinary(dec)
	if err != nil {
		s.fail(w, "solve", decodeStatus(err), err.Error())
		return
	}
	s.writeSolveResult(w, "solve", s.solveInstance(r.Context(), algo, seed, ins))
}

// decodeSingleBinary reads the one instance a single-instance route's body
// must hold, rejecting anything after it — mirroring the JSON path's
// trailing-data rejection. More is a one-byte probe: no second instance
// gets decoded just to be thrown away.
func decodeSingleBinary(dec *codec.Reader) (sfcp.Instance, error) {
	ins, err := decodeBinaryInstance(dec)
	if err != nil {
		return sfcp.Instance{}, err
	}
	switch more, probeErr := dec.More(); {
	case probeErr != nil:
		return sfcp.Instance{}, probeErr
	case more:
		return sfcp.Instance{}, errors.New("invalid binary body: trailing data after instance")
	}
	return ins, nil
}

// handleBatchBinary serves POST /solve/batch with a binary body of
// concatenated wire-format instances: the upload is sharded into members
// as it streams, each with its own trailer digest for cache keying, and
// the members are then solved concurrently like a JSON batch.
//
// A member that fails only its digest check is positionally recoverable
// (every framed byte was consumed, so the stream stays aligned — see
// codec.ErrDigestMismatch): it becomes a per-member error in the response
// instead of a 400 aborting its valid siblings. Errors that lose framing
// (truncation, bad varints, bad magic) still abort the whole upload — the
// remaining byte positions are meaningless.
func (s *Server) handleBatchBinary(w http.ResponseWriter, r *http.Request) {
	algo, seed, err := binaryParams(r)
	if err != nil {
		s.fail(w, "batch", http.StatusBadRequest, err.Error())
		return
	}
	dec, body := s.binaryDecoder(w, r)
	defer func() { s.metrics.ingest("binary", body.n) }()
	type member struct {
		ins    sfcp.Instance
		decErr error
	}
	var members []member
	for {
		if len(members) == s.cfg.MaxBatch {
			// A one-byte probe rejects an over-limit upload before the
			// excess member's arrays get decoded and allocated.
			more, err := dec.More()
			if err != nil {
				s.fail(w, "batch", decodeStatus(err), err.Error())
				return
			}
			if more {
				s.fail(w, "batch", http.StatusBadRequest,
					fmt.Sprintf("batch exceeds limit %d", s.cfg.MaxBatch))
				return
			}
			break
		}
		ins, err := decodeBinaryInstance(dec)
		if err == io.EOF {
			break
		}
		if errors.Is(err, codec.ErrDigestMismatch) {
			members = append(members, member{decErr: err})
			continue
		}
		if err != nil {
			s.fail(w, "batch", decodeStatus(err),
				fmt.Sprintf("instance %d: %s", len(members), err))
			return
		}
		members = append(members, member{ins: ins})
	}
	if len(members) == 0 {
		s.fail(w, "batch", http.StatusBadRequest, "empty batch")
		return
	}
	s.runBatch(w, len(members), func(i int) SolveResponse {
		if err := members[i].decErr; err != nil {
			return SolveResponse{Algorithm: algo.String(), Error: err.Error()}
		}
		return s.solveInstance(r.Context(), algo, seed, members[i].ins)
	})
}

// isBinary reports whether the request carries a wire-format body.
func isBinary(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == sfcp.BinaryMediaType
}

// binaryParams resolves the query-string algorithm and seed of a binary
// upload (the wire format itself carries only the instance).
func binaryParams(r *http.Request) (sfcp.Algorithm, *uint64, error) {
	q := r.URL.Query()
	name := q.Get("algorithm")
	if name == "" {
		name = sfcp.AlgorithmAuto.String()
	}
	algo, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		return 0, nil, err
	}
	var seed *uint64
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("invalid seed %q: %w", raw, err)
		}
		seed = &v
	}
	return algo, seed, nil
}

// binaryDecoder wraps the request body in the byte limit, a byte counter
// for the ingest metric, and a chunked wire-format reader capped at MaxN.
func (s *Server) binaryDecoder(w http.ResponseWriter, r *http.Request) (*codec.Reader, *countingReader) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	dec := codec.NewReader(body)
	dec.MaxN = s.cfg.MaxN
	return dec, body
}

// decodeBinaryInstance reads one instance, its XXH64 trailer verified
// chunk by chunk during the streamed decode — so no byte of the body is
// read twice and corruption surfaces here, not as a wrong answer. Cache
// keying happens later on the SHA-256 content address (see solveInstance).
// io.EOF marks a clean end of stream.
func decodeBinaryInstance(dec *codec.Reader) (sfcp.Instance, error) {
	f, b, err := dec.Decode()
	if err != nil {
		return sfcp.Instance{}, err
	}
	return sfcp.Instance{F: f, B: b}, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("batch")
	if r.Method != http.MethodPost {
		s.fail(w, "batch", http.StatusMethodNotAllowed, "POST required")
		return
	}
	if isBinary(r) {
		s.handleBatchBinary(w, r)
		return
	}
	var req BatchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.fail(w, "batch", decodeStatus(err), err.Error())
		return
	}
	if len(req.Instances) == 0 {
		s.fail(w, "batch", http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Instances) > s.cfg.MaxBatch {
		s.fail(w, "batch", http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Instances), s.cfg.MaxBatch))
		return
	}
	s.runBatch(w, len(req.Instances), func(i int) SolveResponse {
		return s.solveOne(r.Context(), req.Instances[i], req.Algorithm)
	})
}

// solveOne resolves a JSON request's algorithm and size limit, then hands
// off to solveInstance. It never panics the handler: problems come back
// in SolveResponse.Error.
func (s *Server) solveOne(ctx context.Context, req SolveRequest, defaultAlgo string) SolveResponse {
	name := req.Algorithm
	if name == "" {
		name = defaultAlgo
	}
	if name == "" {
		name = sfcp.AlgorithmAuto.String()
	}
	algo, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		return SolveResponse{Algorithm: name, Error: err.Error()}
	}
	if len(req.F) > s.cfg.MaxN {
		return SolveResponse{
			Algorithm: algo.String(),
			Error:     fmt.Sprintf("instance of %d elements exceeds limit %d", len(req.F), s.cfg.MaxN),
		}
	}
	return s.solveInstance(ctx, algo, req.Seed, sfcp.Instance{F: req.F, B: req.B})
}

// solveInstance adapts solveResult's outcome to the synchronous API's
// SolveResponse shape.
func (s *Server) solveInstance(ctx context.Context, algo sfcp.Algorithm, seedOverride *uint64, ins sfcp.Instance) SolveResponse {
	resp := SolveResponse{Algorithm: algo.String()}
	out := s.solveResult(ctx, algo, seedOverride, ins)
	if out.err != nil {
		resp.Error = out.err.Error()
		resp.transient = errors.Is(out.err, errShutdown) || errors.Is(out.err, batcher.ErrShutdown) ||
			errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded)
		return resp
	}
	resp.ResolvedAlgorithm = out.plan.Algorithm.String()
	resp.PlanReason = out.plan.Reason
	resp.PlanWorkers = out.plan.Workers
	resp.Labels, resp.NumClasses, resp.Stats, resp.Cached = out.res.Labels, out.res.NumClasses, out.res.Stats, out.cached
	if !out.cached {
		resp.ElapsedMS = float64(out.elapsed) / float64(time.Millisecond)
		resp.PlanMS = float64(out.res.Timings.Plan) / float64(time.Millisecond)
		resp.SolveMS = float64(out.res.Timings.Solve) / float64(time.Millisecond)
	}
	resp.Coalesced = out.coalesced
	resp.FlushReason = out.flushReason
	resp.QueueMS = float64(out.queueWait) / float64(time.Millisecond)
	return resp
}

// solveOutcome is everything the solve path reports about one request:
// the result and resolved plan, whether the cache served it, end-to-end
// elapsed time, and — when the coalescing front door handled it — the
// batch metadata (flush size and reason, per-request queue wait).
type solveOutcome struct {
	res         sfcp.Result
	plan        sfcp.Plan
	cached      bool
	elapsed     time.Duration
	coalesced   int
	flushReason string
	queueWait   time.Duration
	err         error
}

// solveResult is the one solve path of the server — synchronous handlers
// and async job dispatchers both land here. It first resolves the
// request's execution plan (validating the instance as a side effect), so
// everything downstream — the cache key, the worker queue, the metrics —
// is keyed by the algorithm that actually runs: a request for "auto" and
// an explicit request for the planner's choice share one cache entry and
// one queue instead of solving twice.
//
// The cache uses the instance's SHA-256 content address. Both ingest
// formats share the cache keyspace deliberately: the wire format's XXH64
// trailer guards integrity but is not collision-resistant, so cache
// correctness — where a crafted collision would serve one instance
// another's labels — rests on the cryptographic digest, and a JSON upload
// of an instance hits the entry its binary twin populated. With caching
// disabled no digest is computed at all.
func (s *Server) solveResult(ctx context.Context, algo sfcp.Algorithm, seedOverride *uint64, ins sfcp.Instance) solveOutcome {
	seed := s.cfg.Seed
	if seedOverride != nil {
		seed = *seedOverride
	}
	if s.coalescible(algo, ins) {
		return s.solveCoalesced(ctx, algo, seed, ins)
	}
	planStart := time.Now()
	plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: algo, Workers: s.cfg.Workers})
	planDur := time.Since(planStart)
	if err != nil {
		// A plan/validation failure is not a solve: nothing resolved and
		// nothing ran, so it counts under the dedicated plan-error family
		// keyed by what the request asked for — never under the
		// per-resolved-algorithm solve families (which a request for
		// "auto" would otherwise pollute with an "auto" label no solve
		// ever carries).
		s.metrics.planError(algo.String())
		return solveOutcome{err: err}
	}
	resolved := plan.Algorithm
	s.metrics.plan(resolved.String())
	var key, digest string
	if s.cache.enabled() || s.blobs != nil {
		// One digest serves both tiers: the RAM key and the durable
		// result key are content addresses over the same SHA-256.
		digest = ins.Digest()
	}
	if s.cache.enabled() {
		key = cacheKey(resolved, seed, digest)
		if res, ok := s.cache.Get(key); ok {
			s.metrics.cache(true)
			// The labels are shared, but the plan reported is this
			// request's own resolution — not whatever request happened to
			// populate the entry (an "auto" hit on an explicit twin's
			// entry must not claim "explicit ... request").
			res.Plan = &plan
			return solveOutcome{res: res, plan: plan, cached: true}
		}
		s.metrics.cache(false)
	}
	// RAM missed; the durable tier may still hold the answer (persisted
	// by an async job, a spilled solve, or a previous process over the
	// same data dir). A hit warms the RAM cache like any other fill.
	if res, ok := s.tierGet(resolved, seed, digest); ok {
		res.Plan = &plan
		if key != "" {
			s.cache.Put(key, res)
		}
		return solveOutcome{res: res, plan: plan, cached: true}
	}

	start := time.Now()
	res, err := s.pool.submit(ctx, resolved, func(ctx context.Context) (sfcp.Result, error) {
		// Execute exactly the plan that chose the queue and the cache key —
		// no re-validation of the choice inside the pool.
		if seed == s.cfg.Seed {
			return s.solvers[resolved].SolvePlanned(ctx, ins, plan)
		}
		return sfcp.SolvePlanned(ctx, ins, plan, sfcp.Options{Seed: seed})
	})
	elapsed := time.Since(start)
	s.metrics.solve(resolved.String(), elapsed, res.NumClasses, err)
	if err != nil {
		return solveOutcome{plan: plan, elapsed: elapsed, err: err}
	}
	res.Timings.Plan = planDur
	if key != "" {
		s.cache.Put(key, res)
	}
	// Results big enough to spill (the job manager's RAM-release
	// threshold) write through to the durable tier, so the next process
	// over this data dir starts warm for exactly the instances that are
	// expensive to recompute.
	if s.blobs != nil && len(ins.F) >= s.cfg.SpillN {
		s.tierPut(resolved, seed, digest, res.Labels)
	}
	return solveOutcome{res: res, plan: plan, elapsed: elapsed}
}

// cacheKey builds the "resolved/seed/digest" cache key without fmt — this
// runs on every cacheable request, and Sprintf's reflection costs more
// than the rest of the lookup in the tiny-solve regime. One allocation
// (the final string); pinned by TestCacheKeyAllocs.
func cacheKey(algo sfcp.Algorithm, seed uint64, digest string) string {
	name := algo.String()
	var b strings.Builder
	b.Grow(len(name) + len(digest) + 22) // 20 digits of uint64 max + 2 slashes
	b.WriteString(name)
	b.WriteByte('/')
	var num [20]byte
	b.Write(strconv.AppendUint(num[:0], seed, 10))
	b.WriteByte('/')
	b.WriteString(digest)
	return b.String()
}

func (s *Server) fail(w http.ResponseWriter, route string, code int, msg string) {
	s.metrics.error(route)
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeJSON parses the body under the configured byte limit, so oversized
// payloads are cut off while streaming instead of after a full decode.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	defer func() { s.metrics.ingest("json", body.n) }()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}

func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
