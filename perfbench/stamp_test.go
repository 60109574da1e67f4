package main

import "testing"

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := result{Workload: "solve-large", Metrics: map[string]float64{}}
	a.Stamp.Host.CPUModel, a.Stamp.Host.NumCPU, a.Stamp.NProc = "cpu A", 2, 2
	b := a
	if err := sameHost([]result{a, b}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Stamp.Host.CPUModel = "cpu B"
	if err := sameHost([]result{a, b}); err == nil {
		t.Fatal("different CPU models accepted")
	}
	b = a
	b.Stamp.GOMAXPROCS = 8
	if err := sameHost([]result{a, b}); err == nil {
		t.Fatal("different GOMAXPROCS accepted")
	}
}
