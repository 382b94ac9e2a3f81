// Package flowinsens implements an Andersen-style flow-insensitive,
// context-insensitive pointer analysis as an ablation baseline. §6.1 of the
// paper notes that flow-insensitive analyses extend trivially from
// sequential to multithreaded programs — because they ignore statement
// order, they already model every interleaving — at the cost of precision:
// no strong updates, one points-to graph for the whole program.
//
// The implementation processes every instruction of every function
// repeatedly over a single global graph until a fixed point. Calls are
// modelled by unifying actual-parameter location sets with formals and the
// callee's return location set with the call-site result (a
// subset-constraint treatment specialised to the IR's explicit
// temporaries).
//
// Besides serving as an ablation row, the analysis is the soundness
// oracle of the bench suite: TestFlowInsensSoundness and
// TestAblationMatrix assert that every flow-sensitive edge at main's
// exit is contained in this graph, under every ablation combination.
package flowinsens

import (
	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
	"mtpa/internal/sem"
)

// Result is the single program-wide points-to graph.
type Result struct {
	Graph *ptgraph.Graph
	// Iterations is the number of passes over the program.
	Iterations int
}

// Analyze computes the flow-insensitive points-to graph.
func Analyze(prog *ir.Program) *Result {
	a := &analyzer{prog: prog, tab: prog.Table, g: ptgraph.New()}
	iters := 0
	for {
		iters++
		a.changed = false
		for _, fn := range prog.Funcs {
			for _, n := range fn.AllNodes {
				for _, in := range n.Instrs {
					a.apply(in)
				}
			}
		}
		if !a.changed {
			break
		}
	}
	return &Result{Graph: a.g, Iterations: iters}
}

type analyzer struct {
	prog    *ir.Program
	tab     *locset.Table
	g       *ptgraph.Graph
	changed bool
}

func (a *analyzer) add(src, dst locset.ID) {
	if src == locset.UnkID {
		return
	}
	if a.g.Add(src, dst) {
		a.changed = true
	}
}

// unkSet is the canonical {unk}.
var unkSet = ptgraph.NewSet(locset.UnkID)

// derefID is deref of the single location set x.
func (a *analyzer) derefID(x locset.ID) ptgraph.Set {
	if x == locset.UnkID {
		return unkSet
	}
	if succ := a.g.Succs(x); !succ.IsEmpty() {
		return succ
	}
	return unkSet
}

// deref applies the unk backstop of the core analysis so the two engines
// agree on uninitialised pointers.
func (a *analyzer) deref(s ptgraph.Set) ptgraph.Set {
	if s.Len() == 1 {
		return a.derefID(s.IDs()[0])
	}
	var b ptgraph.SetBuilder
	for _, x := range s.IDs() {
		if x == locset.UnkID {
			b.Add(locset.UnkID)
			continue
		}
		succ := a.g.Succs(x)
		if succ.IsEmpty() {
			b.Add(locset.UnkID)
			continue
		}
		b.AddSet(succ)
	}
	return b.Build()
}

func (a *analyzer) copyInto(dst locset.ID, targets ptgraph.Set) {
	if dst == locset.UnkID {
		return
	}
	if a.g.AddSet(dst, targets) {
		a.changed = true
	}
}

func (a *analyzer) apply(in *ir.Instr) {
	switch in.Op {
	case ir.OpAddrOf:
		a.add(in.Dst, in.Src)
	case ir.OpCopy:
		a.copyInto(in.Dst, a.derefID(in.Src))
	case ir.OpLoad:
		a.copyInto(in.Dst, a.deref(a.derefID(in.Src)))
	case ir.OpStore:
		vals := a.derefID(in.Src)
		for _, z := range a.derefID(in.Dst).IDs() {
			if z == locset.UnkID {
				continue
			}
			a.copyInto(z, vals)
		}
	case ir.OpArith, ir.OpIndexAddr:
		for _, l := range a.derefID(in.Src).IDs() {
			a.add(in.Dst, a.tab.Bump(l, in.Elem))
		}
	case ir.OpField:
		for _, l := range a.derefID(in.Src).IDs() {
			a.add(in.Dst, a.tab.Elem(l, in.Elem, in.PtrTarget))
		}
	case ir.OpAlloc:
		hb := a.tab.HeapBlock(in.Site, a.prog.SiteTypes[in.Site], "")
		a.add(in.Dst, a.tab.Intern(hb, 0, 0, in.PtrTarget))
	case ir.OpNull, ir.OpUnknown:
		a.add(in.Dst, locset.UnkID)
	case ir.OpCall:
		a.applyCall(in.Call)
	}
}

func (a *analyzer) applyCall(call *ir.Call) {
	if call.Builtin != sem.BuiltinNone {
		switch call.Builtin {
		case sem.BuiltinMemset, sem.BuiltinStrcpy, sem.BuiltinMemcpy:
			if call.Ret != ir.NoLoc && len(call.Args) > 0 && call.Args[0] != ir.NoLoc {
				a.copyInto(call.Ret, a.derefID(call.Args[0]))
			}
		default:
			if call.Ret != ir.NoLoc {
				a.add(call.Ret, locset.UnkID)
			}
		}
		return
	}
	var targets []*ir.Func
	if call.Callee != nil {
		if fn := a.prog.FuncOf(call.Callee); fn != nil {
			targets = append(targets, fn)
		}
	} else if call.FnLoc != ir.NoLoc {
		for _, l := range a.derefID(call.FnLoc).IDs() {
			if l == locset.UnkID {
				continue
			}
			b := a.tab.Get(l).Block
			if b.Kind == locset.KindFunc {
				if fn := a.prog.FuncOf(b.Fn); fn != nil {
					targets = append(targets, fn)
				}
			}
		}
	}
	for _, fn := range targets {
		for i, arg := range call.Args {
			if arg == ir.NoLoc || i >= len(fn.ParamLocs) {
				continue
			}
			a.copyInto(fn.ParamLocs[i], a.derefID(arg))
		}
		if call.Ret != ir.NoLoc && fn.RetLoc != ir.NoLoc {
			a.copyInto(call.Ret, a.derefID(fn.RetLoc))
		}
	}
	if len(targets) == 0 && call.Ret != ir.NoLoc {
		a.add(call.Ret, locset.UnkID)
	}
}

// AccessCount returns, for one measured access, the number of location sets
// the flow-insensitive graph needs to represent it (the analogue of the
// paper's precision metric, for the ablation comparison) and whether the
// pointer is potentially uninitialised.
func (r *Result) AccessCount(prog *ir.Program, acc ir.Access) (int, bool) {
	a := &analyzer{prog: prog, tab: prog.Table, g: r.Graph}
	var ptr locset.ID
	switch acc.Instr.Op {
	case ir.OpLoad, ir.OpDataLoad:
		ptr = acc.Instr.Src
	case ir.OpStore, ir.OpDataStore:
		ptr = acc.Instr.Dst
	default:
		return 0, false
	}
	locs := a.derefID(ptr)
	n := locs.Len()
	uninit := locs.Has(locset.UnkID)
	if uninit {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n, uninit
}
