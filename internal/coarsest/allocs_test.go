package coarsest

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLinearSequentialWarmArenaAllocs pins the per-solve allocation count
// of the sequential solver once its Scratch arena is warm: the returned
// labels plus one string per distinct canonical cycle class, nothing that
// grows with n. The bounds are the counts measured when the pin was added;
// a change that allocates per solve (a fresh map, an unpooled buffer)
// trips it.
func TestLinearSequentialWarmArenaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		family string
		n      int
		max    float64
	}{
		{"random", 48, 1},
		{"permutation", 48, 1},
		{"random", 1024, 16},
		{"permutation", 1024, 28},
		{"random", 65536, 21},
		{"permutation", 65536, 28},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.n)))
			ins := randomInstance(rng, c.n, 3)
			if c.family == "permutation" {
				ins = permutationInstance(rng, c.n, 3)
			}
			var sc Scratch
			LinearSequentialScratch(ins, &sc)
			got := testing.AllocsPerRun(5, func() { LinearSequentialScratch(ins, &sc) })
			if got > c.max {
				t.Fatalf("%v allocations per warm solve, want <= %v", got, c.max)
			}
		})
	}
	t.Run("batch/8x256", func(t *testing.T) {
		rng := rand.New(rand.NewSource(256))
		members := make([]Instance, 8)
		for i := range members {
			members[i] = randomInstance(rng, 256, 3)
		}
		var sc Scratch
		LinearSequentialBatch(members, &sc)
		got := testing.AllocsPerRun(5, func() { LinearSequentialBatch(members, &sc) })
		if got > 82 {
			t.Fatalf("%v allocations per warm batch, want <= 82", got)
		}
	})
}
