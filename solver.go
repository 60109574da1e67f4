package sfcp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/engine"
	"sfcp/internal/par"
)

// Algorithms lists every solver in declaration order — the canonical
// enumeration for CLIs, servers and tests.
func Algorithms() []Algorithm {
	return engine.Algorithms()
}

// ParseAlgorithm maps a name (as printed by Algorithm.String) back to its
// Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sfcp: unknown algorithm %q (want one of %s)", name, algorithmNames())
}

func algorithmNames() string {
	s := ""
	for i, a := range Algorithms() {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Digest returns a stable hex-encoded SHA-256 content address of the
// instance, suitable as a cache key: two instances share a digest iff they
// have identical F and B. Lengths are folded in, so (F, B) boundaries are
// unambiguous.
func (ins Instance) Digest() string {
	// The hash state sees exactly the byte stream of the original
	// one-Write-per-int implementation; batching ~4KiB per h.Write only
	// amortizes the hasher's per-call overhead, which otherwise dominates
	// content-addressing 10^8-element instances on the cache hot path.
	h := sha256.New()
	var buf [4096]byte
	n := 0
	writeInt := func(v int) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		n += 8
	}
	writeInt(len(ins.F))
	for _, v := range ins.F {
		writeInt(v)
	}
	writeInt(len(ins.B))
	for _, v := range ins.B {
		writeInt(v)
	}
	h.Write(buf[:n])
	return hex.EncodeToString(h.Sum(nil))
}

// Solver is a reusable solving engine. Unlike the one-shot SolveWith it
// amortizes allocations across calls (the native-parallel working set is
// recycled through a per-worker scratch arena) and runs batch members
// concurrently under a bounded parallelism budget. A Solver is safe for
// concurrent use by multiple goroutines.
type Solver struct {
	opts    Options
	sem     chan struct{} // bounds in-flight batch members across all calls
	scratch sync.Pool     // *coarsest.Scratch, reused by native-parallel solves
}

// NewSolver returns a Solver that applies opts to every Solve and
// SolveBatch call. opts.Parallelism bounds how many batch members run at
// once (0 = NumCPU).
func NewSolver(opts Options) *Solver {
	p := par.Workers(opts.Parallelism)
	return &Solver{
		opts: opts,
		sem:  make(chan struct{}, p),
		scratch: sync.Pool{New: func() any {
			return new(coarsest.Scratch)
		}},
	}
}

// Options returns the options the solver was built with.
func (s *Solver) Options() Options { return s.opts }

// Solve computes the coarsest partition of one instance.
func (s *Solver) Solve(ins Instance) (Result, error) {
	return s.SolveContext(context.Background(), ins)
}

// SolveContext is Solve with cooperative cancellation: the parallel solvers
// poll ctx between refinement rounds (native-parallel) or simulated PRAM
// steps and return ctx.Err() within one round of a cancellation; the
// sequential solvers check ctx only on entry. A cancelled solve leaves the
// solver (and its scratch arenas) fully reusable.
func (s *Solver) SolveContext(ctx context.Context, ins Instance) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return s.solveValidated(ctx, in, s.opts.Workers)
}

func (s *Solver) solveValidated(ctx context.Context, in coarsest.Instance, workers int) (Result, error) {
	opts := s.opts
	opts.Workers = workers
	sc := s.scratch.Get().(*coarsest.Scratch)
	res, err := solveValidated(ctx, in, opts, sc)
	s.scratch.Put(sc)
	return res, err
}

// Plan resolves the execution plan the solver would use for ins without
// solving it (see PlanWith).
func (s *Solver) Plan(ins Instance) (Plan, error) {
	return PlanWith(ins, s.opts)
}

// SolvePlanned executes a previously resolved plan with the solver's seed
// and scratch arenas, without re-planning (see the package-level
// SolvePlanned).
func (s *Solver) SolvePlanned(ctx context.Context, ins Instance, plan Plan) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	sc := s.scratch.Get().(*coarsest.Scratch)
	res, err := executePlan(ctx, in, plan, s.opts.Seed, sc)
	s.scratch.Put(sc)
	return res, err
}

// SolveBatchPlanned executes one previously resolved batch plan (see
// PlanBatch) over every instance, sequentially on the calling goroutine
// under a single shared scratch arena — the execution half of the
// coalescing fast path: N tiny solves pay one plan, one scratch
// checkout, and near-zero per-member allocation. Under a linear plan the
// valid members run back-to-back through coarsest.LinearSequentialBatch
// (one arena, one label slab for the whole batch); each member's
// Result.Timings.Solve then reports its size-proportional share of the
// batch pass. Results and errors are positional; an invalid member fails
// alone (its siblings still solve) and a nil error at position i means
// instances[i] solved.
func (s *Solver) SolveBatchPlanned(ctx context.Context, instances []Instance, plan Plan) ([]Result, []error) {
	results := make([]Result, len(instances))
	errs := make([]error, len(instances))
	sc := s.scratch.Get().(*coarsest.Scratch)
	defer s.scratch.Put(sc)
	totalN := 0
	for i, ins := range instances {
		in := coarsest.Instance{F: ins.F, B: ins.B}
		if err := in.Validate(); err != nil {
			errs[i] = err
			continue
		}
		totalN += len(ins.F)
	}
	if plan.Algorithm == AlgorithmLinear {
		if err := ctx.Err(); err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return results, errs
		}
		// The valid-member staging slice is recycled across batches: on
		// the coalescing hot path a flush arrives every few hundred
		// microseconds and this is its only per-flush scratch besides the
		// label slab the members keep.
		mp, _ := batchMembersPool.Get().(*[]coarsest.Instance)
		if mp == nil {
			mp = new([]coarsest.Instance)
		}
		members := (*mp)[:0]
		for i, ins := range instances {
			if errs[i] == nil {
				members = append(members, coarsest.Instance{F: ins.F, B: ins.B})
			}
		}
		start := time.Now()
		// The batch plan is already resolved (Linear), and the engine has no
		// coalesced-batch entry: one dispatch per member would forfeit the
		// shared arena and label slab this path exists for.
		//sfcpvet:ignore enginedispatch -- executes an engine-resolved Linear plan for a coalesced batch
		labels, classes := coarsest.LinearSequentialBatch(members, sc)
		elapsed := time.Since(start)
		j := 0
		for i := range instances {
			if errs[i] != nil {
				continue
			}
			share := elapsed
			if totalN > 0 {
				share = elapsed * time.Duration(len(members[j].F)) / time.Duration(totalN)
			}
			results[i] = Result{
				Labels:     labels[j],
				NumClasses: classes[j],
				Plan:       &plan,
				Timings:    Timings{Solve: share},
			}
			j++
		}
		clear(members)
		*mp = members[:0]
		batchMembersPool.Put(mp)
		return results, errs
	}
	for i, ins := range instances {
		if errs[i] != nil {
			continue
		}
		results[i], errs[i] = executePlan(ctx, coarsest.Instance{F: ins.F, B: ins.B}, plan, s.opts.Seed, sc)
	}
	return results, errs
}

// batchMembersPool recycles SolveBatchPlanned's valid-member staging
// slices (they never escape: LinearSequentialBatch reads them and the
// returned labels live in their own slab).
var batchMembersPool sync.Pool

// SolveReader decodes one binary wire-format instance from r (see
// internal/codec) and solves it with the solver's algorithm. The decode is
// streamed in fixed-size chunks, so arbitrarily large instances cost no
// peak memory beyond their own arrays; an empty stream returns io.EOF.
// The chunked decode reads ahead, so bytes after the first instance may be
// consumed — to solve a stream of concatenated instances, drain a single
// NewBinaryDecoder and pass each Instance to Solve.
func (s *Solver) SolveReader(r io.Reader) (Result, error) {
	ins, err := DecodeBinary(r)
	if err != nil {
		return Result{}, err
	}
	return s.Solve(ins)
}

// SolveBatch solves every instance with the solver's algorithm, running up
// to Parallelism members concurrently. The host-worker budget (Workers) is
// split across concurrent members so a batch never oversubscribes the
// machine beyond a single wide solve. Results are positional.
//
// An invalid member no longer aborts its siblings: every valid instance is
// solved, failed positions hold the zero Result, and the returned error
// joins the per-member failures (each prefixed "instance %d:"), so
// errors.Is still matches the underlying causes. A nil error means every
// member solved.
func (s *Solver) SolveBatch(instances []Instance) ([]Result, error) {
	return s.SolveBatchContext(context.Background(), instances)
}

// SolveBatchContext is SolveBatch with cooperative cancellation, applied
// both while members wait for a concurrency slot and inside each parallel
// solve (see SolveContext). Members skipped by cancellation report
// ctx.Err() at their position.
func (s *Solver) SolveBatchContext(ctx context.Context, instances []Instance) ([]Result, error) {
	validated := make([]coarsest.Instance, len(instances))
	errs := make([]error, len(instances))
	for i, ins := range instances {
		validated[i] = coarsest.Instance{F: ins.F, B: ins.B}
		errs[i] = validated[i].Validate()
	}
	results := make([]Result, len(instances))

	// Split the worker budget over the members that can run at once.
	inflight := cap(s.sem)
	if len(instances) < inflight {
		inflight = len(instances)
	}
	perMember := 0
	if inflight > 0 {
		perMember = par.Workers(s.opts.Workers) / inflight
		if perMember < 1 {
			perMember = 1
		}
	}

	var wg sync.WaitGroup
	for i := range instances {
		if errs[i] != nil {
			continue
		}
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-s.sem
				wg.Done()
			}()
			results[i], errs[i] = s.solveValidated(ctx, validated[i], perMember)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return results, errors.Join(errs...)
}
