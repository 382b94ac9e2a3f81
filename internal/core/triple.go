// Package core implements the interprocedural, flow-sensitive,
// context-sensitive pointer analysis for multithreaded programs of Rugina
// and Rinard (PLDI 1999).
//
// For every program point the analysis computes the multithreaded points-to
// information ⟨C, I, E⟩ (Definition 1): the current points-to graph C, the
// interference edges I created by concurrently executing threads, and the
// edges E created by the current thread. Basic statements update C and E
// under strong/weak update rules (Figures 3–4); par constructs are solved
// with the fixed point of Figure 6; parallel loops use the specialised
// equations of §3.8; procedure calls map the context into the callee's name
// space through ghost location sets, analyse or reuse a cached result, and
// unmap (§3.10).
package core

import (
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// Triple is the multithreaded points-to information MTI(p) = ⟨C, I, E⟩ of
// Definition 1.
type Triple struct {
	C *ptgraph.Graph // current points-to graph
	I *ptgraph.Graph // interference edges created by parallel threads
	E *ptgraph.Graph // edges created by the current thread
}

// NewTriple returns ⟨∅, ∅, ∅⟩.
func NewTriple() *Triple {
	return &Triple{C: ptgraph.New(), I: ptgraph.New(), E: ptgraph.New()}
}

// Clone deep-copies the triple.
func (t *Triple) Clone() *Triple {
	return &Triple{C: t.C.Clone(), I: t.I.Clone(), E: t.E.Clone()}
}

// Freeze marks all three graphs shared (ptgraph.Graph.Freeze), after
// which concurrent readers may Clone and format them without
// coordination. The triple must not be mutated afterwards.
func (t *Triple) Freeze() {
	t.C.Freeze()
	t.I.Freeze()
	t.E.Freeze()
}

// Merge computes the lattice meet ⟨C₁⊔C₂, I₁∪I₂, E₁∪E₂⟩ in place; it
// reports whether t changed. The C component uses the path-union ⊔, which
// completes implicit initial-unk values: a location set written on one
// incoming path but not the other still holds its initial unknown value on
// the unwritten path, so the merged graph gains an explicit edge to unk.
// (The paper initialises every pointer with L×{unk}; this reproduces that
// semantics with lazily interned location sets.)
func (t *Triple) Merge(other *Triple) bool {
	c := unionPathC(t.C, other.C)
	i := t.I.Union(other.I)
	e := t.E.Union(other.E)
	return c || i || e
}

// addCreatedC adds a set of created edges (an E component) into a path
// state C: besides the edge union, a location set first written by the
// other thread may still hold its prior value from this thread's
// perspective — when C has no edges for it, that prior value is the
// initial unk.
func addCreatedC(dst, created *ptgraph.Graph) bool {
	return dst.UnionPath(created, false)
}

// unionPathC merges two path states' points-to graphs: the edge union plus
// unk-completion for location sets written on exactly one side.
func unionPathC(dst, src *ptgraph.Graph) bool {
	return dst.UnionPath(src, true)
}

// Equal reports component-wise equality.
func (t *Triple) Equal(other *Triple) bool {
	return t.C.Equal(other.C) && t.I.Equal(other.I) && t.E.Equal(other.E)
}

// Leq reports t ⊑ other in the P³ lattice order.
func (t *Triple) Leq(other *Triple) bool {
	return other.C.Contains(t.C) && other.I.Contains(t.I) && other.E.Contains(t.E)
}

// derefPtr is deref(S, C) with the uninitialised-pointer backstop: a
// location set with no outgoing edges has never been assigned, so it still
// holds its initial unknown value (the paper initialises every pointer to
// unk via L×{unk}; interning location sets lazily makes the explicit
// product impractical, so absence of edges means "points to unk").
func derefPtr(s ptgraph.Set, c *ptgraph.Graph) ptgraph.Set {
	if s.Len() == 1 {
		x := s.IDs()[0]
		if x == locset.UnkID {
			return s
		}
		succs := c.Succs(x)
		if succs.IsEmpty() {
			return ptgraph.NewSet(locset.UnkID)
		}
		return succs
	}
	var b ptgraph.SetBuilder
	for _, x := range s.IDs() {
		if x == locset.UnkID {
			b.Add(locset.UnkID)
			continue
		}
		succs := c.Succs(x)
		if succs.IsEmpty() {
			b.Add(locset.UnkID)
			continue
		}
		b.AddSet(succs)
	}
	return b.Build()
}

// strongLoc reports whether a strong update may be performed on the given
// location set: it must denote a single memory location — stride zero, not
// heap-allocated (an allocation site stands for every block it allocates),
// not a merged summary ghost, and not the unknown location.
func strongLoc(tab *locset.Table, id locset.ID) bool {
	if id == locset.UnkID {
		return false
	}
	ls := tab.Get(id)
	if ls.Stride != 0 {
		return false
	}
	b := ls.Block
	if b.IsHeap() || b.Kind == locset.KindString {
		return false
	}
	if b.Kind == locset.KindGhost && b.Summary {
		return false
	}
	return true
}
