package sfcp

import (
	"reflect"
	"testing"

	"sfcp/internal/workload"
)

// TestResultCarriesPlan: every solve reports the resolved plan and stage
// timings, and AlgorithmAuto never leaks through unresolved.
func TestResultCarriesPlan(t *testing.T) {
	wl := workload.RandomFunction(3, 2000, 3)
	ins := Instance{F: wl.F, B: wl.B}
	res, err := SolveWith(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Result.Plan is nil")
	}
	if res.Plan.Algorithm == AlgorithmAuto {
		t.Error("plan not resolved past auto")
	}
	if res.Plan.Reason == "" {
		t.Errorf("auto plan missing reason: %+v", res.Plan)
	}
	if res.Timings.Solve <= 0 {
		t.Errorf("missing solve timing: %+v", res.Timings)
	}

	// An explicit request resolves to itself.
	res, err = SolveWith(ins, Options{Algorithm: AlgorithmHopcroft})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Algorithm != AlgorithmHopcroft {
		t.Errorf("explicit plan = %+v", res.Plan)
	}
}

// TestPlanWithMatchesSolve: the standalone planner returns exactly the
// plan a solve of the same (instance, options) executes, deterministically.
func TestPlanWithMatchesSolve(t *testing.T) {
	wl := workload.RandomPermutation(5, 3000, 3)
	ins := Instance{F: wl.F, B: wl.B}
	opts := Options{Workers: 2}

	plan, err := PlanWith(ins, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := PlanWith(ins, opts)
	if err != nil || !reflect.DeepEqual(plan, again) {
		t.Fatalf("PlanWith not deterministic: %+v vs %+v (%v)", plan, again, err)
	}

	res, err := SolveWith(ins, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Plan, plan) {
		t.Errorf("solve executed plan %+v, PlanWith promised %+v", *res.Plan, plan)
	}

	s := NewSolver(opts)
	splan, err := s.Plan(ins)
	if err != nil || !reflect.DeepEqual(splan, plan) {
		t.Errorf("Solver.Plan = %+v, want %+v (%v)", splan, plan, err)
	}
	sres, err := s.Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Plan == nil || !reflect.DeepEqual(*sres.Plan, plan) {
		t.Errorf("Solver result plan = %+v, want %+v", sres.Plan, plan)
	}

	if _, err := PlanWith(Instance{F: []int{5}, B: []int{0}}, Options{}); err == nil {
		t.Error("PlanWith accepted an invalid instance")
	}
}
