package coarsest

// LinearSequential solves the coarsest partition problem in O(n) expected
// time with the cycle/tree decomposition of the paper run sequentially —
// the structure of Paige, Tarjan & Bonic's linear-time solution (reference
// [16]). It is one pass of the sequential Kernel (see there for the four
// steps) over all nodes, from reset codes, with the array pair coder.
//
// The incremental re-solve (internal/incr) runs the same kernel with a
// persistent map pair coder instead. Two coders stay because the maps are
// up to twice as slow on a full solve: on a 2^20-node random function,
// incr.Build took 790 ms against this solver's 408 ms, and 617 ms against
// 474 ms on a permutation (min of 5, 2-vCPU Xeon, go1.24).
func LinearSequential(ins Instance) []int {
	return LinearSequentialScratch(ins, nil)
}

// LinearSequentialScratch is LinearSequential with caller-provided scratch
// buffers; sc may be nil (a fresh arena is used). All O(n) working vectors
// come from sc and every per-node coding step is array indexing, so
// coalesced batches of small instances solved back-to-back under one arena
// skip nearly all per-call allocation. Only the returned labels escape.
func LinearSequentialScratch(ins Instance, sc *Scratch) []int {
	if sc == nil {
		sc = &Scratch{}
	}
	out := make([]int, len(ins.F))
	linearInto(out, ins, sc)
	return out
}

// LinearSequentialBatch solves every member back-to-back under one shared
// scratch arena, so a coalesced batch of k tiny solves pays for one arena
// instead of k and the only per-member allocation is its slice of a single
// shared label slab. Each entry of the result is identical to
// LinearSequential of that member alone; classes[i] is its class count (a
// byproduct of the canonical rename, saving callers a NumClasses pass).
// sc may be nil (a fresh arena is used). This is the execution half of
// request coalescing.
func LinearSequentialBatch(members []Instance, sc *Scratch) (out [][]int, classes []int) {
	out = make([][]int, len(members))
	classes = make([]int, len(members))
	totalN := 0
	for _, m := range members {
		totalN += len(m.F)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	slab := make([]int, totalN)
	for i, m := range members {
		n := len(m.F)
		out[i] = slab[:n:n]
		slab = slab[n:]
		classes[i] = linearInto(out[i], m, sc)
	}
	return out, classes
}

// linearInto writes the canonical labels of an instance into dst and
// returns its class count. Instances below mooreCutoff take the
// Moore-refinement fast path first; the kernel pass is the fallback (and
// the only path at scale).
func linearInto(dst []int, ins Instance, sc *Scratch) (classes int) {
	k := &sc.kernel
	k.Reset(len(ins.F))
	if len(ins.F) <= mooreCutoff {
		if labels, codes, ok := mooreSmall(ins, sc); ok {
			return k.rename(dst, labels, codes)
		}
	}
	k.solve(ins.F, ins.B, k.All(), &sc.pairs)
	return k.Canonical(dst)
}

// mooreCutoff gates the tiny-instance fast path: below it, plain Moore
// refinement beats the linear algorithm because the cycle/tree machinery
// costs several full passes of per-call constant that dwarf n itself.
const mooreCutoff = 64

// mooreMaxRounds bounds the fast path's refinement rounds. Random
// instances converge in O(depth) rounds; adversarial chains need up to n,
// and past this cap the caller falls back to the O(n) algorithm rather
// than pay quadratic rounds.
const mooreMaxRounds = 32

// mooreSmall computes the coarsest partition of a tiny instance by plain
// Moore refinement: start from the B-partition and split by successor
// class until stable. Each round is three passes of pure array indexing —
// no hashing, no cycle canonicalization — so for n below mooreCutoff it
// undercuts the linear algorithm's per-call constants by several times.
// Splitting is monotone, so a round that does not grow the class count
// changed nothing and the partition is stable — the classic Moore
// argument, and stability from B gives exactly the partition the linear
// algorithm computes. Returns ok=false (caller falls back) when B is too
// sparse for the dense rename table or refinement outruns mooreMaxRounds.
//
// Its two label vectors are the kernel's raw and path, free until the
// kernel pass that follows a bailout. Pair renaming goes through
// sc.pairs.pairArr, which must stay all-zero between solves; every
// round's touched slots are undone, including on bailout.
func mooreSmall(ins Instance, sc *Scratch) (rawLabels []int, codes int, ok bool) {
	n := len(ins.F)
	f, b := ins.F, ins.B

	// Initial rename of B through a dense table (first occurrence order).
	maxB := 0
	for _, v := range b {
		if v > maxB {
			maxB = v
		}
	}
	if maxB >= 4*n {
		return nil, 0, false
	}
	tbl := grow(sc.pairs.tbl, maxB+1)
	clear(tbl)
	sc.pairs.tbl = tbl
	lab, next := sc.kernel.raw, sc.kernel.path
	L := 0
	for x, v := range b {
		id := tbl[v]
		if id == 0 {
			L++
			id = L
			tbl[v] = id
		}
		lab[x] = id - 1
	}

	if cap(sc.pairs.pairArr) < n*n {
		sc.pairs.pairArr = make([]int, n*n)
	}
	pairArr := sc.pairs.pairArr[:n*n]
	for round := 0; round < mooreMaxRounds; round++ {
		touched := sc.pairs.touched[:0]
		newL := 0
		for x := 0; x < n; x++ {
			idx := lab[x]*n + lab[f[x]]
			id := pairArr[idx]
			if id == 0 {
				newL++
				id = newL
				pairArr[idx] = id
				touched = append(touched, idx)
			}
			next[x] = id - 1
		}
		for _, idx := range touched {
			pairArr[idx] = 0
		}
		sc.pairs.touched = touched[:0]
		lab, next = next, lab
		if newL == L {
			return lab, L, true
		}
		L = newL
	}
	return nil, 0, false
}
