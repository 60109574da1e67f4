package main

import (
	"math/rand"
	"testing"

	"sfcp"
)

// Equal canonical hashes must mean exactly what sfcp.SamePartition means.
func TestCanonicalHashAgreesWithSamePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var table []int32
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1 + rng.Intn(n))
		}
		b := make([]int, n)
		switch trial % 3 {
		case 0: // a relabelling of a
			perm := rng.Perm(n + 5)
			for i := range a {
				b[i] = perm[a[i]]
			}
		case 1: // a one-element change
			copy(b, a)
			b[rng.Intn(n)] = rng.Intn(n)
		default: // unrelated
			for i := range b {
				b[i] = rng.Intn(1 + rng.Intn(n))
			}
		}
		var ha, hb uint64
		ha, table = canonicalHash(a, table)
		hb, table = canonicalHash(b, table)
		if (ha == hb) != sfcp.SamePartition(a, b) {
			t.Fatalf("%v vs %v: hashes equal=%v, SamePartition=%v", a, b, ha == hb, sfcp.SamePartition(a, b))
		}
	}
	// The int32 labels parsed from a reply hash like the library's ints.
	x, _ := canonicalHash([]int{5, 5, 2, 9}, nil)
	y, _ := canonicalHash([]int32{0, 0, 1, 2}, nil)
	if x != y {
		t.Error("int and int32 labellings of one partition hash differently")
	}
}
