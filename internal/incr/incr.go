// Package incr implements incremental re-solve for the single-function
// coarsest partition problem: a reusable decomposition State built by one
// full solve, plus ApplyDelta, which re-runs the cycle/tree machinery of
// the linear algorithm only on the components a batch of edits
// invalidates and splices the refreshed labels into the previous result
// under the canonical first-occurrence renumbering — so every version's
// labels are byte-identical to a full solve of the edited instance.
//
// There is one sequential kernel, coarsest.Kernel, with two pair coders.
// The full solve (coarsest.LinearSequential) runs it once over all nodes
// with dense arrays; this package runs it over dirty regions with
// persistent maps, keeping every code across passes. Both coders stay
// because the maps are up to twice as slow on a full solve: on a
// 2^20-node random function, Build took 790 ms against LinearSequential's
// 408 ms, and 617 ms against 474 ms on a permutation (min of 5, 2-vCPU
// Xeon, go1.24). What is left here is what is truly incremental: edits,
// dirty component leaders, the component index refreshed from the
// kernel's leaders, and the rebuild valve.
//
// Why component-scoped recompute is sound: a node's Q-label is a function
// of its forward orbit's B-signature (Lemma 2.1), and the orbit of a node
// outside the edited components never meets an edited node — components
// partition the pseudo-forest and orbits stay inside their component. So
// only the components containing edited nodes can change. The dirty
// region is widened to also include the components of the edits' new
// F-targets, which makes it closed under the edited function (every
// unedited edge stays inside its old component; every edited edge lands
// in an included component). Closure means the recompute needs no
// boundary handling at all: it is the kernel's full four-step pass run on
// the region as a standalone sub-pseudo-forest.
//
// Why spliced labels stay globally consistent: equivalence classes span
// components (two cycles in different components can share a canonical
// string; two trees can share pair structure), so the kernel codes
// through persistent injective maps — canonical cycle string -> class,
// (class, offset) -> code, cycle code -> anchor code, (parent code,
// B label) -> code — that retain every assignment since the last Reset. A recomputed node whose structure matches a clean
// node's reaches the same map entry and gets the same code; a genuinely
// new structure gets a fresh code from the shared counter, so codes stay
// injective across the clean/dirty boundary. Recomputation is therefore
// idempotent on unchanged nodes, and one O(n) first-occurrence renumber
// of the raw codes reproduces exactly the canonical labels a full solve
// emits. Stale entries (structures that no longer occur) waste code
// space but never correctness; a rebuild valve re-founds the state when
// the counter outgrows codeSlack*n.
package incr

import (
	"fmt"

	"sfcp/internal/coarsest"
)

// Edit is one point mutation: retarget F[Node] and/or relabel B[Node].
// SetF/SetB say which halves apply; an edit setting neither is rejected.
type Edit struct {
	Node int  `json:"node"`
	F    int  `json:"f,omitempty"`
	B    int  `json:"b,omitempty"`
	SetF bool `json:"set_f,omitempty"`
	SetB bool `json:"set_b,omitempty"`
}

// Info reports what one delta application did.
type Info struct {
	// DirtyComponents and DirtyNodes size the invalidated region under
	// the pre-edit decomposition.
	DirtyComponents int
	DirtyNodes      int
	// DirtyFrac is DirtyNodes / n.
	DirtyFrac float64
	// Rebuilt reports that the call re-founded the whole state (the
	// Rebuild path, or ApplyDelta's code-exhaustion valve) instead of
	// recomputing only the dirty region.
	Rebuilt bool
	// NumClasses is the class count of the refreshed labeling.
	NumClasses int
}

// codeSlack bounds persistent code-space growth: a full solve needs at
// most 2n codes, and stale entries from superseded structures accumulate
// across deltas, so once the counter passes codeSlack*n the state is
// re-founded by a full rebuild (resetting it to <= 2n live codes).
const codeSlack = 4

// State is the reusable decomposition of one instance. It owns private
// copies of F and B and mutates them as deltas apply. Not safe for
// concurrent use; callers serialize access per state.
type State struct {
	f, b []int
	n    int

	// True cross-delta state: where each node lives and what it codes to.
	comp      []int           // node -> component leader (a cycle node)
	compNodes map[int][]int   // leader -> member nodes
	k         coarsest.Kernel // raw codes and the persistent coder

	region  []int // dirty-region scratch, reused across deltas
	labels  []int // current canonical labels (first-occurrence renumbered)
	classes int
}

// Build runs one full solve of ins and returns its reusable
// decomposition state. The instance is copied; later edits to the
// caller's slices do not affect the state.
func Build(ins coarsest.Instance) (*State, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s := &State{
		f: append([]int(nil), ins.F...),
		b: append([]int(nil), ins.B...),
	}
	s.init()
	return s, nil
}

// N returns the instance size.
func (s *State) N() int { return s.n }

// Labels returns the current canonical labels. The slice is owned by the
// state and overwritten by the next delta; callers that retain it must
// copy.
func (s *State) Labels() []int { return s.labels }

// NumClasses returns the current class count.
func (s *State) NumClasses() int { return s.classes }

// Snapshot returns a copy of the current (post-edit) instance.
func (s *State) Snapshot() coarsest.Instance {
	return coarsest.Instance{
		F: append([]int(nil), s.f...),
		B: append([]int(nil), s.b...),
	}
}

// DirtyStats sizes the region a delta would invalidate — the components
// of the edited nodes and of their new F-targets, under the current
// decomposition — without applying it. This is the planner's input for
// choosing between ApplyDelta and Rebuild.
func (s *State) DirtyStats(edits []Edit) (nodes, comps int, err error) {
	if err := s.validateEdits(edits); err != nil {
		return 0, 0, err
	}
	_, info := s.dirty(edits)
	return info.DirtyNodes, info.DirtyComponents, nil
}

// ApplyDelta applies the edits and recomputes labels by re-running the
// kernel on the dirty region only. Output labels are byte-identical to a
// full solve of the edited instance. The state's persistent code space
// grows with structural churn; when it passes codeSlack*n the call
// transparently rebuilds instead (Info.Rebuilt). The returned slice is
// owned by the state (see Labels).
func (s *State) ApplyDelta(edits []Edit) ([]int, Info, error) {
	return s.apply(edits, false)
}

// Rebuild applies the edits and re-founds the whole state with a full
// solve — the planner's fallback when the dirty fraction makes the
// incremental path a loss. The returned slice is owned by the state.
func (s *State) Rebuild(edits []Edit) ([]int, Info, error) {
	return s.apply(edits, true)
}

func (s *State) apply(edits []Edit, rebuild bool) ([]int, Info, error) {
	if err := s.validateEdits(edits); err != nil {
		return nil, Info{}, err
	}
	if len(edits) == 0 && !rebuild {
		return s.labels, Info{NumClasses: s.classes}, nil
	}
	leaders, info := s.dirty(edits)
	s.applyEdits(edits)
	if rebuild || s.k.Codes() > codeSlack*s.n {
		s.init()
		info.Rebuilt = true
	} else {
		region := s.region[:0]
		for l := range leaders {
			region = append(region, s.compNodes[l]...)
			delete(s.compNodes, l)
		}
		s.region = region
		s.solveRegion(region)
	}
	info.NumClasses = s.classes
	return s.labels, info, nil
}

func (s *State) validateEdits(edits []Edit) error {
	for i, e := range edits {
		if e.Node < 0 || e.Node >= s.n {
			return fmt.Errorf("incr: edit %d: node %d out of range [0,%d)", i, e.Node, s.n)
		}
		if !e.SetF && !e.SetB {
			return fmt.Errorf("incr: edit %d: sets neither F nor B", i)
		}
		if e.SetF && (e.F < 0 || e.F >= s.n) {
			return fmt.Errorf("incr: edit %d: F target %d out of range [0,%d)", i, e.F, s.n)
		}
		if e.SetB && e.B < 0 {
			return fmt.Errorf("incr: edit %d: B label %d negative", i, e.B)
		}
	}
	return nil
}

// dirty collects the component leaders a delta invalidates under the
// pre-edit decomposition — the edited nodes' components (which also cover
// the old F-targets: a node and its old target share a component) and the
// new F-targets' components (which closes the region under the edited
// function) — and sizes that region.
func (s *State) dirty(edits []Edit) (map[int]struct{}, Info) {
	leaders := make(map[int]struct{}, len(edits)*2)
	for _, e := range edits {
		leaders[s.comp[e.Node]] = struct{}{}
		if e.SetF {
			leaders[s.comp[e.F]] = struct{}{}
		}
	}
	info := Info{DirtyComponents: len(leaders)}
	for l := range leaders {
		info.DirtyNodes += len(s.compNodes[l])
	}
	if s.n > 0 {
		info.DirtyFrac = float64(info.DirtyNodes) / float64(s.n)
	}
	return leaders, info
}

func (s *State) applyEdits(edits []Edit) {
	for _, e := range edits {
		if e.SetF {
			s.f[e.Node] = e.F
		}
		if e.SetB {
			s.b[e.Node] = e.B
		}
	}
}

// init (re)founds the state from the current f/b: fresh codes, one
// full-region pass, canonical renumber.
func (s *State) init() {
	s.n = len(s.f)
	if cap(s.comp) < s.n {
		s.comp = make([]int, s.n)
	}
	s.comp = s.comp[:s.n]
	s.compNodes = make(map[int][]int, 16)
	s.k.Reset(s.n)
	s.solveRegion(s.k.All())
}

// solveRegion re-runs the kernel on a region closed under f, refreshes
// comp/compNodes for its nodes from the kernel's leaders and renumbers
// the labels. The caller must have removed the region's old leaders from
// compNodes.
func (s *State) solveRegion(nodes []int) {
	s.k.Solve(s.f, s.b, nodes)
	for _, x := range nodes {
		leader := s.k.Leader(x)
		s.comp[x] = leader
		s.compNodes[leader] = append(s.compNodes[leader], x)
	}
	if s.labels == nil || len(s.labels) != s.n {
		s.labels = make([]int, s.n)
	}
	s.classes = s.k.Canonical(s.labels)
}
