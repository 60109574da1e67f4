package coarsest

import (
	"math/rand"
	"testing"
)

// TestKernelEpochWrap runs one kernel through several stamp wraps and
// checks that every pass's stamps fit in a byte above all stale ones: a
// pass whose states wrapped past 255 would read its own walked nodes as
// unvisited and re-walk them.
func TestKernelEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := randomInstance(rng, 200, 3)
	want := LinearSequential(ins)
	var k Kernel
	got := make([]int, len(ins.F))
	for pass := 0; pass < 3*256/stStates; pass++ {
		k.Reset(len(ins.F))
		k.Solve(ins.F, ins.B, k.All())
		if int(k.epoch)+stStates-1 > 255 {
			t.Fatalf("pass %d: epoch %d leaves no room for %d states", pass, k.epoch, stStates)
		}
		for x, s := range k.stamp {
			if s < k.epoch+stTree || s > k.epoch+stLevelled {
				t.Fatalf("pass %d: node %d stamped %d outside this pass's states [%d, %d]",
					pass, x, s, k.epoch+stTree, k.epoch+stLevelled)
			}
		}
		k.Canonical(got)
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("pass %d: labels differ from LinearSequential at node %d", pass, x)
			}
		}
	}
}
