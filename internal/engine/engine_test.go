package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"sfcp/internal/calib"
	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// families builds one instance of every internal/workload coarsest-
// partition family at (roughly) n elements.
func families(seed int64, n int) map[string]coarsest.Instance {
	k := n / 16
	if k < 1 {
		k = 1
	}
	wl := map[string]workload.Instance{
		"random-function": workload.RandomFunction(seed, n, 3),
		"permutation":     workload.RandomPermutation(seed, n, 3),
		"cycle-family":    workload.CycleFamily(seed, k, 16, 4),
		"distinct-cycles": workload.DistinctCycles(seed, k, 16, 3),
		"broom":           workload.Broom(seed, n, 16, 8),
		"star":            workload.Star(seed, n, 3),
		"unary-dfa":       workload.UnaryDFA(seed, n, 300),
	}
	out := make(map[string]coarsest.Instance, len(wl))
	for name, ins := range wl {
		out[name] = coarsest.Instance{F: ins.F, B: ins.B}
	}
	return out
}

// TestPlannerAgreesWithLinear is the differential gate on the planner:
// whatever Auto resolves to, at any size and worker budget, the labels
// must equal the linear reference exactly (all solvers normalize by first
// occurrence, so equality is slice-wise).
func TestPlannerAgreesWithLinear(t *testing.T) {
	for _, n := range []int{calib.DefaultMinParallelN / 2, calib.DefaultMinParallelN} {
		for name, in := range families(1993, n) {
			want := coarsest.LinearSequential(in)
			for _, workers := range []int{1, 16} {
				out, err := Run(context.Background(), in, Request{Algorithm: Auto, Workers: workers}, nil)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				if !reflect.DeepEqual(out.Labels, want) {
					t.Errorf("n=%d %s workers=%d: auto (resolved %s) disagrees with linear",
						n, name, workers, out.Plan.Algorithm)
				}
				if out.Plan.Algorithm == Auto {
					t.Errorf("n=%d %s: plan not resolved past Auto", n, name)
				}
			}
		}
	}
}

// TestPlanDeterminism: identical instances and requests always yield
// identical plans — reason string and all.
func TestPlanDeterminism(t *testing.T) {
	for name, in := range families(7, calib.DefaultMinParallelN/2) {
		for _, req := range []Request{
			{Algorithm: Auto},
			{Algorithm: Auto, Workers: 16},
			{Algorithm: NativeParallel},
			{Algorithm: Linear},
		} {
			first, err := MakePlan(in, req)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, req, err)
			}
			for i := 0; i < 3; i++ {
				again, err := MakePlan(in, req)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, req, err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("%s %+v: plan not deterministic:\n%+v\n%+v", name, req, first, again)
				}
			}
		}
	}
}

// TestAutoResolvesLinear pins the planner's auto arm: every size and
// every worker budget, for single solves and coalesced batches, resolves
// to Linear with one worker.
func TestAutoResolvesLinear(t *testing.T) {
	for _, n := range []int{1, 1 << 15, 1 << 20} {
		wl := workload.RandomFunction(3, n, 3)
		in := coarsest.Instance{F: wl.F, B: wl.B}
		for _, workers := range []int{0, 1, 2, 64} {
			req := Request{Algorithm: Auto, Workers: workers}
			plan, err := MakePlan(in, req)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if plan.Algorithm != Linear || plan.Workers != 1 || plan.Reason == "" {
				t.Errorf("MakePlan n=%d workers=%d: %s/%d (reason %q), want linear/1",
					n, workers, plan.Algorithm, plan.Workers, plan.Reason)
			}
			batch, err := MakeBatchPlan([]coarsest.Instance{in, in}, req)
			if err != nil {
				t.Fatalf("batch n=%d workers=%d: %v", n, workers, err)
			}
			if batch.Algorithm != Linear || batch.Workers != 1 {
				t.Errorf("MakeBatchPlan n=%d workers=%d: %s/%d (reason %q), want linear/1",
					n, workers, batch.Algorithm, batch.Workers, batch.Reason)
			}
		}
	}
}

// TestExplicitPlans: explicit algorithm requests are honored verbatim; an
// explicit worker count on native-parallel is an instruction, while an
// unstated one grants one worker per calib.DefaultWorkerGrain elements,
// capped at NumCPU.
func TestExplicitPlans(t *testing.T) {
	in := families(5, 4*calib.DefaultMinParallelN)["random-function"]
	for _, algo := range []Algorithm{Moore, Hopcroft, Linear, ParallelPRAM, NativeParallel, DoublingHash, DoublingSort} {
		plan, err := MakePlan(in, Request{Algorithm: algo, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if plan.Algorithm != algo {
			t.Errorf("explicit %v request resolved to %v", algo, plan.Algorithm)
		}
	}
	explicit, _ := MakePlan(in, Request{Algorithm: NativeParallel, Workers: 64})
	if explicit.Workers != 64 {
		t.Errorf("explicit worker count overridden: %d", explicit.Workers)
	}
	scaled, _ := MakePlan(in, Request{Algorithm: NativeParallel})
	if want := min(len(in.F)/calib.DefaultWorkerGrain, runtime.NumCPU()); scaled.Workers != want {
		t.Errorf("unstated native-parallel budget at n=%d granted %d workers, want %d", len(in.F), scaled.Workers, want)
	}
	batch, _ := MakeBatchPlan([]coarsest.Instance{{F: []int{0}, B: []int{0}}, in}, Request{Algorithm: NativeParallel})
	if batch.Algorithm != NativeParallel || batch.Workers != scaled.Workers {
		t.Errorf("explicit batch plan = %s/%d, want native-parallel/%d from the largest member",
			batch.Algorithm, batch.Workers, scaled.Workers)
	}
}

// TestPlanResolveCrossover pins the incremental/full split at the
// constant calib.DefaultIncrMaxDirtyFrac: on 100 self-loop components,
// dirtying 29 stays incremental and dirtying 31 falls back to a full
// re-solve, and ResolveDelta executes what the plan says.
func TestPlanResolveCrossover(t *testing.T) {
	const n = 100
	f, b := make([]int, n), make([]int, n)
	for i := range f {
		f[i] = i
	}
	for _, tc := range []struct {
		dirty int
		mode  string
	}{{29, ResolveIncremental}, {31, ResolveFullFallback}} {
		st, err := NewIncremental(coarsest.Instance{F: f, B: b})
		if err != nil {
			t.Fatal(err)
		}
		edits := make([]incr.Edit, tc.dirty)
		for i := range edits {
			edits[i] = incr.Edit{Node: i, B: 1, SetB: true}
		}
		plan, err := PlanResolve(st, edits)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode != tc.mode || plan.DirtyNodes != tc.dirty || plan.DirtyComponents != tc.dirty {
			t.Errorf("%d/%d dirty: plan = %+v, want mode %s", tc.dirty, n, plan, tc.mode)
		}
		out, err := ResolveDelta(st, edits)
		if err != nil {
			t.Fatal(err)
		}
		if out.Plan.Mode != tc.mode || out.Info.Rebuilt != (tc.mode == ResolveFullFallback) {
			t.Errorf("%d/%d dirty: executed %s (rebuilt=%v), want %s", tc.dirty, n, out.Plan.Mode, out.Info.Rebuilt, tc.mode)
		}
	}
}

// TestUnknownAlgorithm: planning and execution both reject values outside
// the dispatch table.
func TestUnknownAlgorithm(t *testing.T) {
	in := coarsest.Instance{F: []int{0}, B: []int{0}}
	if _, err := MakePlan(in, Request{Algorithm: Algorithm(99)}); err == nil {
		t.Error("MakePlan accepted Algorithm(99)")
	}
	if _, _, err := Execute(context.Background(), in, Plan{Algorithm: Auto}, 0, nil); err == nil {
		t.Error("Execute accepted an unresolved Auto plan")
	}
}

// TestAlgorithmTextRoundTrip covers the JSON-facing text codec.
func TestAlgorithmTextRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Algorithm
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Errorf("round trip %v -> %s -> %v (%v)", a, text, back, err)
		}
	}
	var a Algorithm
	if err := a.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}
