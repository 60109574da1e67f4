// Fixture analyzed under the package path "sfcp/internal/other": the
// scratch and batch forms of the linear solver and the sequential kernel
// are solver entry points too.
package other

import "sfcp/internal/coarsest"

func solveWithArena(in coarsest.Instance, sc *coarsest.Scratch) []int {
	return coarsest.LinearSequentialScratch(in, sc) // want "direct use of coarsest.LinearSequentialScratch"
}

func solveBatch(members []coarsest.Instance) [][]int {
	out, _ := coarsest.LinearSequentialBatch(members, nil) // want "direct use of coarsest.LinearSequentialBatch"
	return out
}

func driveKernel(f, b []int) []int {
	var k coarsest.Kernel // want "direct use of coarsest.Kernel"
	k.Reset(len(f))
	k.Solve(f, b, k.All())
	labels := make([]int, len(f))
	k.Canonical(labels)
	return labels
}

func scratchIsFine() *coarsest.Scratch {
	// The arena type is a helper, not an entry point.
	return &coarsest.Scratch{}
}
