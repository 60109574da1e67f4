package coarsest

import (
	"math"

	"sfcp/internal/circ"
)

// Kernel is the one sequential core of the linear algorithm. A pass runs
// the four steps over a region of nodes that is closed under f:
//
//  1. find the region's cycles,
//  2. reduce each cycle's B-label string to its smallest repeating prefix,
//     rotate it to the minimal starting point (Booth) and code the cycle
//     nodes by (canonical class, offset) — Section 3 of the paper,
//  3. mark tree nodes whose root path matches their cycle (Lemma 4.1),
//     level by level, giving them the cycle codes,
//  4. code the remaining forest top-down by (parent code, B-label) pairs
//     (Lemma 4.2).
//
// Both sequential solvers are passes of this kernel. The full solve
// (LinearSequential) resets the codes and runs one pass over all nodes
// with the array pair coder. The incremental re-solve (internal/incr)
// keeps the codes across passes, re-runs the kernel on the components an
// edit invalidates, and codes pairs through persistent maps (Solve).
//
// Per-node arrays are epoch-stamped: an entry means something only for a
// node written during the current pass. The region is closed under f, so
// a pass never reads a stale entry, and a pass clears no n-sized array
// (the one-byte stamps are cleared once per 50 passes, when the epoch
// wraps).
// The cycle coder — canonical cycle string -> class, (class, offset) ->
// code — lives here and keeps its assignments until Reset, so a cycle
// recomputed in a later pass meets the code its twins already hold.
// A Kernel is not safe for concurrent use.
type Kernel struct {
	// raw maps each node to its raw Q-code in [0, Codes()), as written by
	// the last pass that covered it. Raw codes are injective on classes
	// but not canonical; Canonical renames them.
	raw []int

	stamp  []uint8 // node -> epoch + stamp state (see stWalk)
	epoch  uint8
	marked []bool  // Lemma 4.1: cycle nodes and tree nodes matching their cycle
	at     []place // node -> its place in the pseudo-forest
	cycles []cycle
	cycSeq []int // all cycles' nodes, concatenated in rank order

	// Grown scratch, reused across passes.
	path                    []int // one walk, at most n nodes
	bsBuf, order, ends, all []int
	key                     []byte

	// Cycle coder.
	canonCls  map[string]int // canonical cycle string -> class
	classBase []int          // class -> first slot in codeArr
	codeArr   []int          // class base + offset -> code+1 (0 unassigned)
	nextCode  int

	persist mapCoder

	// Rename table of Canonical: code -> idGen<<32 | id, valid when the
	// high half matches the current generation, so no pass clears it.
	ids   []uint64
	idGen uint32
}

// Stamp states a node passes through in one pass, as offsets from the
// pass's epoch.
const (
	stWalk     = iota // on the current step-1 walk
	stTree            // walked, off every cycle
	stCycle           // walked, on a cycle
	stCoded           // cycle node coded by step 2
	stLevelled        // tree node with its place set
	stStates
)

// place locates a node. For a tree node, up is the cycle node its root
// path reaches and dist its depth below it; for a cycle node, up is the
// index of its cycle in cycles and dist its rank from the cycle's leader.
// One struct keeps both halves in one cache line on the random walks.
type place struct{ up, dist int }

// cycle is what steps 3 and 4 need to know about one cycle of a pass.
type cycle struct {
	first  int // start of the cycle's run in cycSeq, where its leader sits
	length int
	cls    int // canonical class
	msp    int // rotation: Q-offset of rank i is (i-msp) mod per
	per    int // period of the cycle's B-string
}

// pairCoder is the one place the full solve and the incremental re-solve
// differ: how Lemma 4.2 codes are looked up. Codes are fresh from the
// kernel's counter whenever a key is new.
type pairCoder interface {
	// begin prepares one pass and returns the coder that runs it: itself,
	// or a fallback. unmarked lists the pass's unmarked tree nodes and is
	// only valid until end.
	begin(k *Kernel, b, unmarked []int) pairCoder
	// anchor returns the parent code a marked node with cycle code c
	// stands for, kept apart from pair codes so the two cannot collide.
	anchor(c int) int
	// pairs codes one level of unmarked nodes: on entry raw[x] holds the
	// code of x's parent, on return the code of the pair (parent, B[x]).
	pairs(level []int)
	end()
}

// Reset sizes the kernel for instances of n nodes and drops every code
// assignment, including the persistent pair coder's.
func (k *Kernel) Reset(n int) {
	k.raw = grow(k.raw, n)
	k.stamp = grow(k.stamp, n)
	k.marked = grow(k.marked, n)
	k.at = grow(k.at, n)
	k.path = grow(k.path, n)
	// cycSeq, bsBuf and codeArr are appended to, but a full pass fills up
	// to n entries of each; sizing them once keeps a cold arena from
	// paying a chain of growth copies.
	k.cycSeq = grow(k.cycSeq, n)[:0]
	k.bsBuf = grow(k.bsBuf, n)[:0]
	k.codeArr = grow(k.codeArr, n)[:0]
	if k.canonCls == nil {
		k.canonCls = make(map[string]int)
	}
	clear(k.canonCls)
	k.classBase = k.classBase[:0]
	k.nextCode = 0
	k.persist.reset()
}

// Codes returns the number of raw codes handed out since Reset.
func (k *Kernel) Codes() int { return k.nextCode }

// Solve runs one pass over nodes of the instance (f, b), coding pairs
// through the persistent map coder so that a pass over a sub-region
// reuses the codes earlier passes gave equal structures. nodes must be
// distinct and closed under f, and len(f) must be the n of the last Reset.
func (k *Kernel) Solve(f, b, nodes []int) {
	k.solve(f, b, nodes, &k.persist)
}

// Leader returns the leader node of x's component — its cycle's first
// node in region order — for a node of the last pass.
func (k *Kernel) Leader(x int) int {
	p := k.at[x]
	if k.stamp[x] == k.epoch+stLevelled {
		p = k.at[p.up]
	}
	return k.cycSeq[k.cycles[p.up].first]
}

// Canonical writes the canonical first-occurrence renaming of the raw
// codes into dst and returns the class count. This normal form is what
// every solver emits, which makes the labels of any two correct paths
// byte-identical.
func (k *Kernel) Canonical(dst []int) int {
	return k.rename(dst, k.raw[:len(dst)], k.nextCode)
}

// rename writes the first-occurrence renaming of raw (codes in
// [0, codes)) into dst and returns the class count. Raw codes reach 2n-1
// in a full solve and more in incr, whose code space grows with churn, so
// the table is bounded by codes, not by n as NormalizeLabels' dense path
// is.
func (k *Kernel) rename(dst, raw []int, codes int) int {
	if cap(k.ids) < codes {
		k.ids = make([]uint64, codes)
	}
	ids := k.ids[:codes]
	k.idGen++
	if k.idGen == 0 {
		clear(k.ids[:cap(k.ids)])
		k.idGen = 1
	}
	gen := uint64(k.idGen) << 32
	next := 0
	for i, c := range raw {
		v := ids[c]
		if v&^math.MaxUint32 != gen {
			v = gen | uint64(next)
			ids[c] = v
			next++
		}
		dst[i] = int(uint32(v))
	}
	return next
}

// fresh hands out the next unused code.
func (k *Kernel) fresh() int {
	k.nextCode++
	return k.nextCode - 1
}

// All returns the node list 0..n-1 of the last Reset, the region of a
// full pass. Callers must not modify it.
func (k *Kernel) All() []int {
	if n := len(k.raw); cap(k.all) < n {
		k.all = make([]int, n)
		for i := range k.all {
			k.all[i] = i
		}
	}
	return k.all[:len(k.raw)]
}

// solve runs one pass over nodes, coding pairs through pc. Each step is
// its own method so its loop gets the registers to itself.
func (k *Kernel) solve(f, b, nodes []int, pc pairCoder) {
	// This pass stamps epoch+stWalk..epoch+stLevelled; restart from
	// cleared stamps before those would wrap past 255.
	if int(k.epoch)+2*stStates > math.MaxUint8+1 {
		clear(k.stamp[:cap(k.stamp)])
		k.epoch = 0
	}
	k.epoch += stStates
	k.findCycles(f, nodes)
	k.codeCycles(f, b, nodes)
	maxLevel := k.placeTrees(f, nodes)
	k.sortLevels(nodes, maxLevel)
	unmarked := k.markTrees(f, b, maxLevel)
	k.codePairs(f, b, unmarked, maxLevel, pc)
}

// findCycles is step 1: every region node ends it stamped stTree or
// stCycle.
func (k *Kernel) findCycles(f, nodes []int) {
	walk, tree, cyc := k.epoch+stWalk, k.epoch+stTree, k.epoch+stCycle
	stamp, path := k.stamp, k.path
	for _, s := range nodes {
		if stamp[s] >= walk {
			continue
		}
		np := 0
		x := s
		for stamp[x] < walk {
			stamp[x] = walk
			path[np] = x
			np++
			x = f[x]
		}
		closed := stamp[x] == walk // x starts a cycle the walk closed
		for _, y := range path[:np] {
			stamp[y] = tree
		}
		if closed {
			for i := np - 1; ; i-- {
				stamp[path[i]] = cyc
				if path[i] == x {
					break
				}
			}
		}
	}
}

// codeCycles is step 2: canonical form per cycle; cycle nodes code
// through the (class, offset) coder. Each class reserves period
// consecutive slots in codeArr, so the lookup is one array index.
func (k *Kernel) codeCycles(f, b, nodes []int) {
	cyc, coded := k.epoch+stCycle, k.epoch+stCoded
	stamp := k.stamp
	cycSeq := k.cycSeq[:0]
	k.cycles = k.cycles[:0]
	key := k.key
	for _, s := range nodes {
		if stamp[s] != cyc {
			continue
		}
		first := len(cycSeq)
		for x := s; stamp[x] == cyc; x = f[x] {
			stamp[x] = coded
			cycSeq = append(cycSeq, x)
		}
		nodes := cycSeq[first:]
		bs := k.bsBuf[:0]
		for _, y := range nodes {
			bs = append(bs, b[y])
		}
		k.bsBuf = bs
		p := circ.SmallestRepeatingPrefix(bs)
		prefix := bs[:p]
		msp := circ.BoothMSP(prefix)
		// Varint-encode the rotated prefix into the reusable key buffer:
		// the lookup on string(key) does not allocate, and a string is
		// materialized only when the class is new. Equal B strings give
		// equal bytes, so classes persist across passes.
		key = key[:0]
		for i := 0; i < p; i++ {
			v := prefix[(msp+i)%p]
			for v >= 0x80 {
				key = append(key, byte(v)|0x80)
				v >>= 7
			}
			key = append(key, byte(v), 0xff)
		}
		cls, ok := k.canonCls[string(key)]
		if !ok {
			cls = len(k.canonCls)
			k.canonCls[string(key)] = cls
			k.classBase = append(k.classBase, len(k.codeArr))
			k.codeArr = append(k.codeArr, make([]int, p)...)
		}
		ci := len(k.cycles)
		k.cycles = append(k.cycles, cycle{first: first, length: len(nodes), cls: cls, msp: msp, per: p})
		base := k.classBase[cls]
		for i, y := range nodes {
			k.at[y] = place{up: ci, dist: i}
			k.marked[y] = true
			off := ((i-msp)%p + p) % p
			code := k.codeArr[base+off]
			if code == 0 {
				code = k.fresh() + 1
				k.codeArr[base+off] = code
			}
			k.raw[y] = code - 1
		}
	}
	k.cycSeq, k.key = cycSeq, key
}

// placeTrees sets every tree node's place, iteratively (deep paths would
// overflow a recursion stack): walk up to the first cycle node or placed
// node, then unwind. It returns the deepest level.
func (k *Kernel) placeTrees(f, nodes []int) (maxLevel int) {
	tree, levelled := k.epoch+stTree, k.epoch+stLevelled
	stamp, at, path := k.stamp, k.at, k.path
	for _, s := range nodes {
		np := 0
		x := s
		for stamp[x] == tree {
			path[np] = x
			np++
			x = f[x]
		}
		p := place{up: x}
		if stamp[x] == levelled {
			p = at[x]
		}
		for i := np - 1; i >= 0; i-- {
			p.dist++
			at[path[i]] = p
			stamp[path[i]] = levelled
		}
		maxLevel = max(maxLevel, p.dist)
	}
	return maxLevel
}

// sortLevels counting-sorts the tree nodes by level: order holds them
// grouped by ascending level, level l's run is order[ends[l-1]:ends[l]].
func (k *Kernel) sortLevels(nodes []int, maxLevel int) {
	levelled := k.epoch + stLevelled
	stamp, at := k.stamp, k.at
	ends := grow(k.ends, maxLevel+1)
	clear(ends)
	for _, x := range nodes {
		if stamp[x] == levelled && at[x].dist < maxLevel {
			ends[at[x].dist+1]++
		}
	}
	for l := 1; l <= maxLevel; l++ {
		ends[l] += ends[l-1] // now the start of level l's run
	}
	order := grow(k.order, len(nodes))
	for _, x := range nodes {
		if stamp[x] == levelled {
			l := at[x].dist
			order[ends[l]] = x
			ends[l]++ // ends up at the end of level l's run
		}
	}
	k.ends, k.order = ends, order[:ends[maxLevel]]
}

// markTrees is step 3: mark tree nodes matching their cycle counterpart
// (Lemma 4.1) top-down, so a node is marked only if its whole root path
// matches. The counterpart of x is the cycle node l steps behind its
// root; on a match x inherits that node's (class, offset) code, which
// step 2 assigned (a cycle covers every offset of its class). The
// unmarked nodes are compacted to the front of order, level runs kept,
// and returned.
func (k *Kernel) markTrees(f, b []int, maxLevel int) (unmarked []int) {
	marked, at, raw, order, ends := k.marked, k.at, k.raw, k.order, k.ends
	lo, w := 0, 0
	for l := 1; l <= maxLevel; l++ {
		hi := ends[l]
		for _, x := range order[lo:hi] {
			m := false
			if marked[f[x]] {
				r := at[at[x].up]
				c := &k.cycles[r.up]
				cr := ((r.dist-l)%c.length + c.length) % c.length
				if b[x] == b[k.cycSeq[c.first+cr]] {
					off := ((cr-c.msp)%c.per + c.per) % c.per
					m = true
					raw[x] = k.codeArr[k.classBase[c.cls]+off] - 1
				}
			}
			marked[x] = m
			if !m {
				order[w] = x
				w++
			}
		}
		lo, ends[l] = hi, w
	}
	return order[:w]
}

// codePairs is step 4: unmarked nodes top-down by (parent code, B) pairs
// (Lemma 4.2). A marked parent stands in as its anchor code. Each node's
// raw slot carries its parent code into the coder, which overwrites it
// with the pair code; parents sit one level up, so no slot is read after
// it is overwritten.
func (k *Kernel) codePairs(f, b, unmarked []int, maxLevel int, pc pairCoder) {
	marked, raw := k.marked, k.raw
	pc = pc.begin(k, b, unmarked)
	for l := 1; l <= maxLevel; l++ {
		lv := k.order[k.ends[l-1]:k.ends[l]]
		for _, x := range lv {
			px := f[x]
			if marked[px] {
				raw[x] = pc.anchor(raw[px])
			} else {
				raw[x] = raw[px]
			}
		}
		pc.pairs(lv)
	}
	pc.end()
}

// arrayCoder is the full solve's pair coder. Unmarked nodes' B-labels are
// densely renamed to [0, L) first; pairs then code through
// pairArr[parent*L + class] while that table stays within 16 ints per
// node. The bounds rest on a solve starting from reset codes, which keeps
// every code below 2n: cycle codes ≤ #cycle nodes (each takes a reserved
// (class, offset) slot), anchor codes ≤ cycle codes, pair codes ≤
// #unmarked tree nodes, so their sum is at most 2·#cycle nodes +
// #unmarked ≤ 2n. Label-rich B (labels ≥ 4n, or more than 8 classes)
// breaks the bounds; such passes fall back to the kernel's map coder,
// which Reset left empty.
type arrayCoder struct {
	k       *Kernel
	bcls    []int // unmarked tree node -> dense B class
	tbl     []int // B label -> class+1 (0 unseen)
	L       int
	anchors []int // cycle code -> anchor code+1 (0 unassigned)
	// pairArr is indexed parent*L + class, value code+1. It is all-zero
	// between solves: end undoes exactly the touched slots, so a new solve
	// never pays an O(len) clear. mooreSmall shares it under the same rule.
	pairArr []int
	touched []int
}

func (c *arrayCoder) begin(k *Kernel, b, unmarked []int) pairCoder {
	c.k = k
	n := len(k.raw)
	var hi uint
	for _, x := range unmarked {
		hi = max(hi, uint(b[x]))
	}
	if hi >= uint(4*n) {
		return k.persist.begin(k, b, unmarked)
	}
	tbl := grow(c.tbl, int(hi)+1)
	clear(tbl)
	c.bcls = grow(c.bcls, n)
	c.L = 0
	for _, x := range unmarked {
		id := tbl[b[x]]
		if id == 0 {
			c.L++
			id = c.L
			tbl[b[x]] = id
		}
		c.bcls[x] = id - 1
	}
	c.tbl = tbl
	if size := 2 * n * c.L; size > 16*n {
		return k.persist.begin(k, b, unmarked)
	} else if cap(c.pairArr) < size {
		c.pairArr = make([]int, size)
	}
	c.anchors = grow(c.anchors, k.nextCode)
	clear(c.anchors)
	return c
}

func (c *arrayCoder) anchor(code int) int {
	a := c.anchors[code]
	if a == 0 {
		a = c.k.fresh() + 1
		c.anchors[code] = a
	}
	return a - 1
}

func (c *arrayCoder) pairs(level []int) {
	raw, L := c.k.raw, c.L
	for _, x := range level {
		idx := raw[x]*L + c.bcls[x]
		code := c.pairArr[idx]
		if code == 0 {
			code = c.k.fresh() + 1
			c.pairArr[idx] = code
			c.touched = append(c.touched, idx)
		}
		raw[x] = code - 1
	}
}

func (c *arrayCoder) end() {
	for _, idx := range c.touched {
		c.pairArr[idx] = 0
	}
	c.touched = c.touched[:0]
}

// mapCoder is the incremental re-solve's pair coder: injective maps that
// keep every assignment until Reset, so a recomputed node whose structure
// matches a clean node's reaches the same entry and gets the same code.
// B classes and parent codes are unbounded here — code space grows with
// churn across passes — which is why the array coder's bounds do not
// apply.
type mapCoder struct {
	k       *Kernel
	b       []int
	anchors map[int]int    // cycle code -> anchor code
	codes   map[[2]int]int // (parent code, B label) -> code
}

func (c *mapCoder) reset() {
	clear(c.anchors)
	clear(c.codes)
}

func (c *mapCoder) begin(k *Kernel, b, _ []int) pairCoder {
	c.k, c.b = k, b
	if c.codes == nil {
		c.anchors = make(map[int]int)
		c.codes = make(map[[2]int]int)
	}
	return c
}

func (c *mapCoder) anchor(code int) int {
	a, ok := c.anchors[code]
	if !ok {
		a = c.k.fresh()
		c.anchors[code] = a
	}
	return a
}

func (c *mapCoder) pairs(level []int) {
	raw := c.k.raw
	for _, x := range level {
		key := [2]int{raw[x], c.b[x]}
		code, ok := c.codes[key]
		if !ok {
			code = c.k.fresh()
			c.codes[key] = code
		}
		raw[x] = code
	}
}

func (c *mapCoder) end() { c.b = nil }

// grow returns buf resized to n, reallocating (contents lost) only when
// its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
