package ptgraph

import (
	"math/rand"
	"testing"

	"mtpa/internal/locset"
	"mtpa/internal/ptgraph/mapref"
)

// The differential interpreter: a byte program drives the same operation
// sequence through the sorted-slice copy-on-write representation and the
// preserved map-based reference, cross-checking results (including the
// change-reported booleans) after every step. After every step it also
// checks aliasing: no pool graph other than the one the step mutated may
// have changed its edges or hash, which is how a copy-on-write slice
// shared by clones would show a missed copy. Used both as a deterministic
// random test and as the corpus format for FuzzGraphOpsDifferential.

type diffState struct {
	gs   []*Graph
	refs []*mapref.Graph
	b    GraphBuilder // reused across builds, exercising Reset
}

// snapshot records every pool graph's edges and hash before a step.
type snapshot struct {
	edges [][]Edge
	hash  []uint64
}

func (st *diffState) snapshot() snapshot {
	var sn snapshot
	for _, g := range st.gs {
		sn.edges = append(sn.edges, g.Edges())
		sn.hash = append(sn.hash, g.Hash())
	}
	return sn
}

// checkAliasing fails if any graph of the snapshot other than mutated
// (-1 for a read-only step) changed.
func (st *diffState) checkAliasing(t *testing.T, op string, sn snapshot, mutated int) {
	t.Helper()
	for i, before := range sn.edges {
		if i == mutated {
			continue
		}
		g := st.gs[i]
		after := g.Edges()
		same := len(after) == len(before) && g.Hash() == sn.hash[i]
		for j := 0; same && j < len(after); j++ {
			same = after[j] == before[j]
		}
		if !same {
			t.Fatalf("after %s on graph %d: graph %d changed from %v to %v", op, mutated, i, before, after)
		}
	}
}

// refUnionPath is the reference path-union: the edge union plus an edge
// to unk for every source with edges in src but none in dst and, with
// own, for every source with edges in dst but none in src.
func refUnionPath(dst, src *mapref.Graph, own bool) bool {
	var needUnk []locset.ID
	for _, s := range src.Sources() {
		if dst.OutDegree(s) == 0 {
			needUnk = append(needUnk, s)
		}
	}
	if own {
		for _, s := range dst.Sources() {
			if src.OutDegree(s) == 0 {
				needUnk = append(needUnk, s)
			}
		}
	}
	changed := dst.Union(src)
	for _, s := range needUnk {
		if dst.Add(s, locset.UnkID) {
			changed = true
		}
	}
	return changed
}

var diffOpNames = [...]string{"Add", "AddSet", "ReplaceSucc", "Kill", "KillEdges", "Union",
	"Clone", "Deref", "Intersect", "Map", "KillSrc", "UnionPath", "UnionPath(own)", "CloneShared/Build"}

func (st *diffState) check(t *testing.T, op string) {
	t.Helper()
	for i, g := range st.gs {
		ref := st.refs[i]
		if g.Len() != ref.Len() {
			t.Fatalf("after %s: graph %d has %d edges, reference %d", op, i, g.Len(), ref.Len())
		}
		ge, re := g.Edges(), ref.Edges()
		for j := range ge {
			if ge[j].Src != re[j].Src || ge[j].Dst != re[j].Dst {
				t.Fatalf("after %s: graph %d edge %d = %v, reference %v", op, i, j, ge[j], re[j])
			}
		}
	}
}

func refSet(s Set) mapref.Set { return mapref.NewSet(s.IDs()...) }

// runDiffProgram interprets data as a sequence of graph operations applied
// in lockstep to both representations.
func runDiffProgram(t *testing.T, data []byte) {
	t.Helper()
	const numIDs = 10
	st := &diffState{
		gs:   []*Graph{New()},
		refs: []*mapref.Graph{mapref.New()},
	}
	pick := func(b byte) int { return int(b) % len(st.gs) }
	id := func(b byte) locset.ID { return locset.ID(b % numIDs) }

	for i := 0; i+3 < len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		gi := pick(c)
		g, ref := st.gs[gi], st.refs[gi]
		sn := st.snapshot()
		mutated := gi
		switch op % 14 {
		case 0: // Add
			ch1 := g.Add(id(a), id(b))
			ch2 := ref.Add(id(a), id(b))
			if ch1 != ch2 {
				t.Fatalf("Add(%d,%d) changed=%v, reference=%v", id(a), id(b), ch1, ch2)
			}
			st.check(t, "Add")
		case 1: // AddSet
			dsts := NewSet(id(a), id(b), id(a+b))
			g.AddSet(id(c), dsts)
			for _, d := range dsts.IDs() {
				ref.Add(id(c), d)
			}
			st.check(t, "AddSet")
		case 2: // ReplaceSucc
			dsts := NewSet(id(a), id(b))
			g.ReplaceSucc(id(c), dsts)
			ref.Kill(mapref.NewSet(id(c)))
			for _, d := range dsts.IDs() {
				ref.Add(id(c), d)
			}
			st.check(t, "ReplaceSucc")
		case 3: // Kill
			ks := NewSet(id(a), id(b))
			ch1 := g.Kill(ks)
			ch2 := ref.Kill(refSet(ks))
			if ch1 != ch2 {
				t.Fatalf("Kill(%v) changed=%v, reference=%v", ks.IDs(), ch1, ch2)
			}
			st.check(t, "Kill")
		case 4: // KillEdges
			kg := New()
			kref := mapref.New()
			kg.Add(id(a), id(b))
			kref.Add(id(a), id(b))
			kg.Add(id(b), id(c))
			kref.Add(id(b), id(c))
			ch1 := g.KillEdges(kg)
			ch2 := ref.KillEdges(kref)
			if ch1 != ch2 {
				t.Fatalf("KillEdges changed=%v, reference=%v", ch1, ch2)
			}
			st.check(t, "KillEdges")
		case 5: // Union with another pool graph
			oi := pick(a)
			ch1 := g.Union(st.gs[oi])
			ch2 := ref.Union(st.refs[oi])
			if ch1 != ch2 {
				t.Fatalf("Union changed=%v, reference=%v", ch1, ch2)
			}
			st.check(t, "Union")
		case 6: // Clone (bounded pool)
			mutated = -1
			if len(st.gs) < 8 {
				st.gs = append(st.gs, g.Clone())
				st.refs = append(st.refs, ref.Clone())
			}
			st.check(t, "Clone")
		case 7: // Deref
			mutated = -1
			srcs := NewSet(id(a), id(b))
			d1 := g.Deref(srcs)
			d2 := ref.Deref(refSet(srcs))
			if !refSet(d1).Equal(d2) {
				t.Fatalf("Deref(%v) = %v, reference %v", srcs.IDs(), d1.Sorted(), d2.Sorted())
			}
		case 8: // Intersect / Contains / Equal cross-checks
			mutated = -1
			oi := pick(a)
			i1 := Intersect(g, st.gs[oi])
			i2 := mapref.Intersect(ref, st.refs[oi])
			if i1.Len() != i2.Len() {
				t.Fatalf("Intersect has %d edges, reference %d", i1.Len(), i2.Len())
			}
			ie, re := i1.Edges(), i2.Edges()
			for j := range ie {
				if ie[j].Src != re[j].Src || ie[j].Dst != re[j].Dst {
					t.Fatalf("Intersect edge %d = %v, reference %v", j, ie[j], re[j])
				}
			}
			if g.Equal(st.gs[oi]) != ref.Equal(st.refs[oi]) {
				t.Fatalf("Equal disagrees with reference")
			}
			if g.Contains(st.gs[oi]) != ref.Contains(st.refs[oi]) {
				t.Fatalf("Contains disagrees with reference")
			}
		case 9: // Map (collapse one ID to unk, shift another)
			mutated = -1
			f := func(x locset.ID) locset.ID {
				if x == id(a) {
					return locset.UnkID
				}
				if x == id(b) {
					return id(b + 1)
				}
				return x
			}
			m1 := g.Map(f)
			m2 := ref.Map(f)
			if m1.Len() != m2.Len() {
				t.Fatalf("Map has %d edges, reference %d", m1.Len(), m2.Len())
			}
			me, re := m1.Edges(), m2.Edges()
			for j := range me {
				if me[j].Src != re[j].Src || me[j].Dst != re[j].Dst {
					t.Fatalf("Map edge %d = %v, reference %v", j, me[j], re[j])
				}
			}
		case 10: // KillSrc
			ch1 := g.KillSrc(id(a))
			ch2 := ref.Kill(mapref.NewSet(id(a)))
			if ch1 != ch2 {
				t.Fatalf("KillSrc(%d) changed=%v, reference=%v", id(a), ch1, ch2)
			}
			st.check(t, "KillSrc")
		case 11, 12: // UnionPath with a pool graph, completing one side or both
			own := op%14 == 12
			oi := pick(a)
			ch1 := g.UnionPath(st.gs[oi], own)
			ch2 := refUnionPath(ref, st.refs[oi], own)
			if ch1 != ch2 {
				t.Fatalf("UnionPath(own=%v) changed=%v, reference=%v", own, ch1, ch2)
			}
			st.check(t, "UnionPath")
		case 13: // Freeze + CloneShared, or a GraphBuilder build, into the pool
			mutated = -1
			if len(st.gs) >= 8 {
				break
			}
			if a%2 == 0 {
				st.gs = append(st.gs, g.Freeze().CloneShared())
				st.refs = append(st.refs, ref.Clone())
				st.check(t, "CloneShared")
				break
			}
			bref := mapref.New()
			for k := 0; k < int(b%8); k++ {
				s, d := id(a+byte(3*k)), id(c+byte(k*k))
				st.b.Add(s, d)
				bref.Add(s, d)
			}
			st.b.AddSet(id(b), NewSet(id(c), id(a)))
			bref.Add(id(b), id(c))
			bref.Add(id(b), id(a))
			if a%3 == 0 {
				// A discarded build: Reset must drop it entirely.
				st.b.Reset()
				bref = mapref.New()
			}
			st.gs = append(st.gs, st.b.Build())
			st.refs = append(st.refs, bref)
			st.check(t, "Build")
		}
		st.checkAliasing(t, diffOpNames[op%14], sn, mutated)
	}
	st.check(t, "final")
	// Full hash re-verification on every surviving graph.
	for i, g := range st.gs {
		var h uint64
		g.ForEach(func(src locset.ID, dsts Set) {
			h ^= contrib(src, dsts)
		})
		if h != g.Hash() {
			t.Fatalf("graph %d: incremental hash %x, recomputed %x", i, g.Hash(), h)
		}
	}
}

func TestDifferentialRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 400)
		r.Read(data)
		runDiffProgram(t, data)
	}
}

func FuzzGraphOpsDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDiffProgram(t, data)
	})
}
