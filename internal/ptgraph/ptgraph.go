// Package ptgraph implements points-to graphs: sets of directed edges
// between location sets (§3.1). Nodes are location-set IDs; an edge x→y
// means a location in x may hold a pointer to a location in y. Graphs are
// ordered by edge-set inclusion; the lattice meet is set union, and the
// dataflow equations for par constructs additionally use intersection.
//
// Representation: a graph is one slice of ⟨source, successor set⟩
// entries sorted by source ID, with no empty sets. Successor sets are
// immutable hash-consed Sets (see set.go), so an entry is 16 bytes and
// two graphs compare per source by pointer. Lookups are binary searches;
// Union, UnionPath, Intersect, Contains, Equal, Kill and KillEdges are
// merge-joins over the two sorted slices; ForEach, Sources and Edges
// come out in ascending source order with no sort.
//
// The entry slice is copy-on-write: Clone is O(1) and shares the slice,
// and the first mutation of a shared graph copies it. A mutation that
// changes nothing writes nothing. Every graph maintains an incremental,
// order-independent 64-bit hash of its edge set, so context caches can
// bucket graphs by hash and verify equality with per-source pointer
// comparisons instead of serialised edge lists.
package ptgraph

import (
	"fmt"
	"slices"
	"strings"

	"mtpa/internal/errs"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph/mapref"
)

// Edge is a points-to edge between two location sets.
type Edge struct {
	Src, Dst locset.ID
}

// entry is one source and its interned, never-empty successor set.
type entry struct {
	src  locset.ID
	dsts Set
}

// Graph is a points-to graph: a set of edges with successor indexing.
type Graph struct {
	// es holds the entries sorted by src, one per source with at least
	// one edge. When shared is set the slice may be referenced by other
	// graphs and is never written in place: the first mutation copies it.
	es     []entry
	hash   uint64
	count  int32
	shared bool

	// shadow mirrors every operation into the original map-based
	// representation when differential shadow mode is enabled (test seam).
	shadow *mapref.Graph
}

// contrib is the hash contribution of one (source, successor-set) entry.
// XORing contributions gives an order-independent graph hash that can be
// updated incrementally when a source's set changes.
func contrib(src locset.ID, s Set) uint64 {
	if s.d == nil {
		return 0
	}
	return mix64(s.d.hash + uint64(uint32(src))*0x9e3779b97f4a7c15)
}

// New returns an empty points-to graph.
func New() *Graph {
	g := &Graph{}
	if shadowEnabled() {
		g.shadow = mapref.New()
	}
	return g
}

// Len returns the number of edges.
func (g *Graph) Len() int { return int(g.count) }

// Hash returns the order-independent hash of the edge set. Equal graphs
// have equal hashes; unequal graphs collide with probability ~2^-64.
func (g *Graph) Hash() uint64 { return g.hash }

// find returns the index of src's entry, or the index at which it would
// be inserted, and whether it is present.
func (g *Graph) find(src locset.ID) (int, bool) {
	es := g.es
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].src < src {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].src == src
}

// succ returns src's successor set (empty when src has no edges).
func (g *Graph) succ(src locset.ID) Set {
	if i, ok := g.find(src); ok {
		return g.es[i].dsts
	}
	return Set{}
}

// account updates the edge count and hash for src's set changing from
// old to next.
func (g *Graph) account(src locset.ID, old, next Set) {
	g.hash ^= contrib(src, old) ^ contrib(src, next)
	g.count += int32(next.Len() - old.Len())
}

// own makes the entry slice writable in place, copying it if shared.
func (g *Graph) own() {
	if g.shared {
		g.es = slices.Clone(g.es)
		g.shared = false
	}
}

// setAt replaces the set of the existing entry i with next, removing the
// entry when next is empty.
func (g *Graph) setAt(i int, next Set) {
	g.account(g.es[i].src, g.es[i].dsts, next)
	if next.d != nil {
		g.own()
		g.es[i].dsts = next
		return
	}
	if g.shared {
		es := make([]entry, 0, len(g.es)-1)
		g.es = append(append(es, g.es[:i]...), g.es[i+1:]...)
		g.shared = false
		return
	}
	g.es = slices.Delete(g.es, i, i+1)
}

// insertAt inserts a new entry for src with the non-empty set dsts at
// index i.
func (g *Graph) insertAt(i int, src locset.ID, dsts Set) {
	g.account(src, Set{}, dsts)
	if g.shared {
		es := make([]entry, 0, len(g.es)+1)
		es = append(es, g.es[:i]...)
		es = append(es, entry{src, dsts})
		g.es = append(es, g.es[i:]...)
		g.shared = false
		return
	}
	g.es = slices.Insert(g.es, i, entry{src, dsts})
}

// update sets src's successor set to next, inserting or removing the
// entry as needed; the caller has checked that the set changes.
func (g *Graph) update(i int, found bool, src locset.ID, next Set) {
	if found {
		g.setAt(i, next)
	} else {
		g.insertAt(i, src, next)
	}
}

// Add inserts the edge src→dst; it reports whether the graph changed.
func (g *Graph) Add(src, dst locset.ID) bool {
	i, found := g.find(src)
	var old Set
	if found {
		old = g.es[i].dsts
	}
	next := old.With(dst)
	if next.d == old.d {
		return false
	}
	g.update(i, found, src, next)
	if g.shadow != nil {
		g.shadowAdd(src, dst)
	}
	return true
}

// AddEdge inserts e.
func (g *Graph) AddEdge(e Edge) bool { return g.Add(e.Src, e.Dst) }

// AddSet unions dsts into src's successor set; it reports change.
func (g *Graph) AddSet(src locset.ID, dsts Set) bool {
	i, found := g.find(src)
	var old Set
	if found {
		old = g.es[i].dsts
	}
	next := old.UnionSet(dsts)
	if next.d == old.d {
		return false
	}
	g.update(i, found, src, next)
	if g.shadow != nil {
		g.shadowAddSet(src, dsts)
	}
	return true
}

// ReplaceSucc sets src's successor set to exactly dsts (the strong-update
// primitive: kill src's edges, then gen src×dsts in one step).
func (g *Graph) ReplaceSucc(src locset.ID, dsts Set) {
	i, found := g.find(src)
	var old Set
	if found {
		old = g.es[i].dsts
	}
	if old.d == dsts.d {
		return
	}
	g.update(i, found, src, dsts)
	if g.shadow != nil {
		g.shadowReplace(src, dsts)
	}
}

// AddProduct inserts every edge in srcs × dsts; it reports change.
func (g *Graph) AddProduct(srcs, dsts Set) bool {
	if dsts.IsEmpty() {
		return false
	}
	changed := false
	for _, s := range srcs.IDs() {
		if g.AddSet(s, dsts) {
			changed = true
		}
	}
	return changed
}

// Has reports whether src→dst is present.
func (g *Graph) Has(src, dst locset.ID) bool {
	return g.succ(src).Has(dst)
}

// Succs returns the (interned, immutable) successor set of src.
func (g *Graph) Succs(src locset.ID) Set { return g.succ(src) }

// OutDegree returns the number of edges leaving src.
func (g *Graph) OutDegree(src locset.ID) int { return g.succ(src).Len() }

// Deref returns {y | ∃x ∈ srcs : (x,y) ∈ g}, the deref function of §3.2.
// Dereferencing the unknown location yields the unknown location itself.
func (g *Graph) Deref(srcs Set) Set {
	if srcs.Len() == 1 {
		x := srcs.IDs()[0]
		if x == locset.UnkID {
			return unkSet
		}
		return g.succ(x)
	}
	var b SetBuilder
	for _, x := range srcs.IDs() {
		if x == locset.UnkID {
			b.Add(locset.UnkID)
			continue
		}
		b.AddSet(g.succ(x))
	}
	return b.Build()
}

// Kill removes every edge whose source is in srcs; it reports change.
func (g *Graph) Kill(srcs Set) bool {
	ids := srcs.IDs()
	if len(ids) == 1 {
		return g.KillSrc(ids[0])
	}
	es := g.es
	var out []entry
	started := false
	k := 0
	for i, e := range es {
		for k < len(ids) && ids[k] < e.src {
			k++
		}
		if k == len(ids) && !started {
			return false
		}
		if k < len(ids) && ids[k] == e.src {
			if !started {
				out = g.startOut(i, len(es)-1)
				started = true
			}
			g.account(e.src, e.dsts, Set{})
			continue
		}
		if started {
			out = append(out, e)
		}
	}
	if !started {
		return false
	}
	g.es, g.shared = out, false
	if g.shadow != nil {
		g.shadowKill(ids)
	}
	return true
}

// startOut begins rewriting g.es from index i on: it returns a slice
// holding the unchanged prefix es[:i], to be appended to. An unshared
// graph's own array is reused (the write index never passes the read
// index); a shared one is copied into a fresh array of capacity n.
func (g *Graph) startOut(i, n int) []entry {
	if !g.shared {
		return g.es[:i]
	}
	return append(make([]entry, 0, n), g.es[:i]...)
}

// KillSrc removes every edge leaving src; it reports change.
func (g *Graph) KillSrc(src locset.ID) bool {
	i, found := g.find(src)
	if !found {
		return false
	}
	g.setAt(i, Set{})
	if g.shadow != nil {
		g.shadowKill([]locset.ID{src})
	}
	return true
}

// KillEdges removes the specific edges in kill (a src×dst product given as
// a graph); it reports change.
func (g *Graph) KillEdges(kill *Graph) bool {
	es, ks := g.es, kill.es
	if len(ks) == 0 || len(es) == 0 {
		return false
	}
	var out []entry
	started := false
	k := 0
	for i, e := range es {
		for k < len(ks) && ks[k].src < e.src {
			k++
		}
		if k == len(ks) && !started {
			return false
		}
		if k < len(ks) && ks[k].src == e.src {
			if next := e.dsts.MinusSet(ks[k].dsts); next.d != e.dsts.d {
				if !started {
					out = g.startOut(i, len(es))
					started = true
				}
				g.account(e.src, e.dsts, next)
				if next.d != nil {
					out = append(out, entry{e.src, next})
				}
				continue
			}
		}
		if started {
			out = append(out, e)
		}
	}
	if !started {
		return false
	}
	g.es, g.shared = out, false
	if g.shadow != nil {
		g.shadowKillEdges(kill)
	}
	return true
}

// Union adds every edge of other into g; it reports change.
func (g *Graph) Union(other *Graph) bool {
	return g.merge(other, false, false)
}

// UnionPath is the union of path states with unk-completion, the
// path-union ⊔ of control-flow merges: a location set with edges in
// other but none in g still holds its initial unknown value in g, so it
// gains an edge to unk besides other's edges. With completeOwn the rule
// also applies the other way: a location set with edges in g but none in
// other gains an edge to unk. It reports change.
func (g *Graph) UnionPath(other *Graph, completeOwn bool) bool {
	return g.merge(other, completeOwn, true)
}

// sameEntries reports whether a and b are the same shared slice; since a
// shared slice is never written in place, they then hold the same edges.
func sameEntries(a, b []entry) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// merge adds other's edges into g in one merge-join, adding src→unk to
// g-only sources when fillOwn and to other-only sources when fillOther.
// It writes nothing when nothing changes and allocates at most once.
func (g *Graph) merge(other *Graph, fillOwn, fillOther bool) bool {
	if other == nil || g == other {
		return false
	}
	a, b := g.es, other.es
	if len(b) == 0 && (!fillOwn || len(a) == 0) || sameEntries(a, b) {
		return false
	}
	if len(a) == 0 && !fillOther && other.shared {
		// Adopt other's shared slice: the union is a clone.
		g.es, g.count, g.hash, g.shared = b, other.count, other.hash, true
		if g.shadow != nil {
			g.shadowMerge(other, false, false)
		}
		return true
	}
	ins := 0 // sources of other that g lacks
	for i, j := 0, 0; j < len(b); {
		switch {
		case i < len(a) && a[i].src < b[j].src:
			i++
		case i < len(a) && a[i].src == b[j].src:
			i++
			j++
		default:
			ins++
			j++
		}
	}
	var changed bool
	if ins == 0 {
		changed = g.mergeInPlace(b, fillOwn)
	} else {
		g.mergeGrow(b, ins, fillOwn, fillOther)
		changed = true
	}
	if changed && g.shadow != nil {
		g.shadowMerge(other, fillOwn, fillOther)
	}
	return changed
}

// mergeInPlace is merge when every source of b is already in g: entries
// only change their sets, so the slice keeps its shape and is copied
// (when shared) only at the first real change.
func (g *Graph) mergeInPlace(b []entry, fillOwn bool) bool {
	changed := false
	j := 0
	for i := range g.es {
		e := g.es[i]
		var next Set
		switch {
		case j < len(b) && b[j].src == e.src:
			next = e.dsts.UnionSet(b[j].dsts)
			j++
		case fillOwn:
			next = e.dsts.With(locset.UnkID)
		default:
			continue
		}
		if next.d == e.dsts.d {
			continue
		}
		if !changed {
			g.own()
			changed = true
		}
		g.account(e.src, e.dsts, next)
		g.es[i].dsts = next
	}
	return changed
}

// mergeGrow is merge when b brings ins new sources. It merges backwards
// into a slice of the final length: g's own array when it is unshared
// and large enough (every write lands at or after the entry it reads),
// a fresh one otherwise.
func (g *Graph) mergeGrow(b []entry, ins int, fillOwn, fillOther bool) {
	a := g.es
	n := len(a) + ins
	var dst []entry
	if !g.shared && cap(a) >= n {
		dst = a[:n]
	} else {
		dst = make([]entry, n)
	}
	i, j := len(a)-1, len(b)-1
	for k := n - 1; j >= 0; k-- {
		var old, e entry
		switch {
		case i >= 0 && a[i].src > b[j].src:
			old, e = a[i], a[i]
			i--
			if fillOwn {
				e.dsts = e.dsts.With(locset.UnkID)
			}
		case i >= 0 && a[i].src == b[j].src:
			old = a[i]
			e = entry{old.src, old.dsts.UnionSet(b[j].dsts)}
			i--
			j--
		default:
			e = b[j]
			j--
			if fillOther {
				e.dsts = e.dsts.With(locset.UnkID)
			}
		}
		g.account(e.src, old.dsts, e.dsts)
		dst[k] = e
	}
	// The remaining prefix a[:i+1] lies below every inserted source.
	if fillOwn {
		for ; i >= 0; i-- {
			next := a[i].dsts.With(locset.UnkID)
			g.account(a[i].src, a[i].dsts, next)
			dst[i] = entry{a[i].src, next}
		}
	} else if i >= 0 && &dst[0] != &a[0] {
		copy(dst, a[:i+1])
	}
	g.es, g.shared = dst, false
}

// Clone returns a logically independent copy. The entry slice is shared
// copy-on-write, so cloning is O(1) and memory is only spent when one of
// the copies diverges.
//
// A graph already marked copy-on-write (one produced by Clone, or frozen
// with Freeze) is cloned without any write to the receiver, so concurrent
// Clone calls on a published snapshot are race-free. Cloning an unshared
// graph still writes the copy-on-write mark and must not race with other
// accesses — publish with Freeze first.
func (g *Graph) Clone() *Graph {
	if !g.shared {
		g.shared = true
	}
	c := &Graph{es: g.es, count: g.count, hash: g.hash, shared: true}
	if g.shadow != nil {
		c.shadow = g.shadow.Clone()
		g.checkCount("Clone")
	}
	return c
}

// Freeze marks the graph copy-on-write without copying anything, so it
// can be handed to concurrent readers as an immutable snapshot: after
// Freeze, Clone and CloneShared perform no write on the receiver, and
// every mutating operation on a clone copies the entry slice first.
// The frozen graph itself must no longer be mutated by its owner; the
// Freeze call must happen-before the graph is shared with other
// goroutines. Freeze is idempotent and returns the receiver for
// chaining.
func (g *Graph) Freeze() *Graph {
	g.shared = true
	return g
}

// CloneShared is Clone for a graph that is already marked copy-on-write
// (i.e. was itself produced by Clone and not mutated since, such as a
// cache-resident snapshot). Unlike Clone it performs no write on the
// receiver, so concurrent CloneShared calls on one shared graph are
// race-free; the returned copy is independently mutable as usual.
func (g *Graph) CloneShared() *Graph {
	if !g.shared && g.es != nil {
		panic(errs.ICE("", "ptgraph: CloneShared on an unshared graph"))
	}
	c := &Graph{es: g.es, count: g.count, hash: g.hash, shared: true}
	if g.shadow != nil {
		c.shadow = g.shadow.Clone()
	}
	return c
}

// Equal reports whether two graphs contain the same edges.
func (g *Graph) Equal(other *Graph) bool {
	if g == other {
		return true
	}
	if g.count != other.count || g.hash != other.hash || len(g.es) != len(other.es) {
		return false
	}
	if sameEntries(g.es, other.es) {
		return true
	}
	for i, e := range g.es {
		if o := other.es[i]; o.src != e.src || o.dsts.d != e.dsts.d {
			return false
		}
	}
	return true
}

// Contains reports whether g contains every edge of other (other ⊆ g).
func (g *Graph) Contains(other *Graph) bool {
	if g == other || sameEntries(g.es, other.es) {
		return true
	}
	a, b := g.es, other.es
	if other.count > g.count || len(b) > len(a) {
		return false
	}
	i := 0
	for _, e := range b {
		for i < len(a) && a[i].src < e.src {
			i++
		}
		if i == len(a) || a[i].src != e.src || !e.dsts.SubsetOf(a[i].dsts) {
			return false
		}
		i++
	}
	return true
}

// Intersect returns a new graph with the edges present in both graphs.
func Intersect(a, b *Graph) *Graph {
	out := New()
	x, y := a.es, b.es
	var es []entry
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i].src < y[j].src:
			i++
		case x[i].src > y[j].src:
			j++
		default:
			if s := x[i].dsts.IntersectSet(y[j].dsts); s.d != nil {
				if es == nil {
					es = make([]entry, 0, min(len(x)-i, len(y)-j))
				}
				es = append(es, entry{x[i].src, s})
				out.account(x[i].src, Set{}, s)
			}
			i++
			j++
		}
	}
	out.es = es
	if out.shadow != nil {
		out.shadowFill("Intersect")
	}
	return out
}

// IntersectAll intersects a non-empty list of graphs.
func IntersectAll(gs []*Graph) *Graph {
	if len(gs) == 0 {
		return New()
	}
	out := gs[0].Clone()
	for _, g := range gs[1:] {
		out = Intersect(out, g)
	}
	return out
}

// ForEach calls f for every (source, successor-set) pair in ascending
// source order. The sets are interned and must not be modified, and f
// must not mutate g.
func (g *Graph) ForEach(f func(src locset.ID, dsts Set)) {
	for _, e := range g.es {
		f(e.src, e.dsts)
	}
}

// Map returns a new graph with every node rewritten by f. Edges whose
// mapped source is the unknown location set are dropped (stores through
// unk are ignored, and ⟨unk⟩×L edges are removed by unmapping — §3.10.1).
// f is called on the nodes in ascending source order.
func (g *Graph) Map(f func(locset.ID) locset.ID) *Graph {
	var b GraphBuilder
	for _, e := range g.es {
		ms := f(e.src)
		if ms == locset.UnkID {
			continue
		}
		for _, d := range e.dsts.IDs() {
			b.Add(ms, f(d))
		}
	}
	return b.Build()
}

// Sources returns the location sets with at least one outgoing edge, in
// ascending order.
func (g *Graph) Sources() []locset.ID {
	out := make([]locset.ID, len(g.es))
	for i, e := range g.es {
		out[i] = e.src
	}
	return out
}

// Nodes returns the set of location sets appearing as an endpoint of any
// edge (the nodes(C) function of §3.10.1).
func (g *Graph) Nodes() Set {
	var b SetBuilder
	for _, e := range g.es {
		b.Add(e.src)
		b.AddSet(e.dsts)
	}
	return b.Build()
}

// Edges returns all edges sorted by (src, dst).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.count)
	for _, e := range g.es {
		for _, d := range e.dsts.IDs() {
			out = append(out, Edge{Src: e.src, Dst: d})
		}
	}
	return out
}

// Format renders the graph with human-readable location-set names.
func (g *Graph) Format(tab *locset.Table) string {
	edges := g.Edges()
	if len(edges) == 0 {
		return "{}"
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%s->%s", tab.String(e.Src), tab.String(e.Dst))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FormatFiltered renders the graph omitting edges whose source block kind
// is in the hidden list (used to hide temporaries in reports).
func (g *Graph) FormatFiltered(tab *locset.Table, hide func(locset.ID) bool) string {
	edges := g.Edges()
	var parts []string
	for _, e := range edges {
		if hide != nil && hide(e.Src) {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s->%s", tab.String(e.Src), tab.String(e.Dst)))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// GraphBuilder accumulates edges in arbitrary order and builds the graph
// with one sort, interning each successor set once. Use it when
// constructing a graph whose edges arrive in arbitrary order (Map,
// unmapping, graph rewrites). A builder can be recycled across
// constructions with Reset, which keeps its buffers.
type GraphBuilder struct {
	edges []uint64 // packed edges, see packEdge
	ids   []locset.ID
}

// packEdge packs an edge into a uint64 whose unsigned order is the
// (src, dst) order of the signed IDs.
func packEdge(src, dst locset.ID) uint64 {
	return uint64(uint32(src)^1<<31)<<32 | uint64(uint32(dst)^1<<31)
}

func unpackSrc(p uint64) locset.ID { return locset.ID(uint32(p>>32) ^ 1<<31) }
func unpackDst(p uint64) locset.ID { return locset.ID(uint32(p) ^ 1<<31) }

// Add records the edge src→dst.
func (b *GraphBuilder) Add(src, dst locset.ID) {
	b.edges = append(b.edges, packEdge(src, dst))
}

// AddSet records every edge in {src} × dsts.
func (b *GraphBuilder) AddSet(src locset.ID, dsts Set) {
	for _, d := range dsts.IDs() {
		b.edges = append(b.edges, packEdge(src, d))
	}
}

// Reset discards all accumulated edges while keeping the buffers, so a
// long-lived builder stops allocating once it has seen its peak shape.
func (b *GraphBuilder) Reset() { b.edges = b.edges[:0] }

// Build interns the accumulated graph and resets the builder.
func (b *GraphBuilder) Build() *Graph {
	g := New()
	edges := b.edges
	if len(edges) == 0 {
		return g
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	n := 1
	for i := 1; i < len(edges); i++ {
		if edges[i]>>32 != edges[i-1]>>32 {
			n++
		}
	}
	g.es = make([]entry, 0, n)
	for i := 0; i < len(edges); {
		hi := edges[i] >> 32
		ids := b.ids[:0]
		for ; i < len(edges) && edges[i]>>32 == hi; i++ {
			ids = append(ids, unpackDst(edges[i]))
		}
		src := unpackSrc(edges[i-1])
		s := intern(ids)
		g.es = append(g.es, entry{src, s})
		g.account(src, Set{}, s)
		b.ids = ids
	}
	b.edges = b.edges[:0]
	if g.shadow != nil {
		g.shadowFill("Build")
	}
	return g
}
