// Package ir lowers checked MiniCilk ASTs to the analysis intermediate
// representation: the four basic pointer assignment statements of §3.2
// (address-of, copy, load, store) plus pointer arithmetic, allocation,
// data accesses, calls and returns, arranged in a parallel flow graph
// (§3.3) whose region nodes represent par constructs and parallel loops.
//
// The node-level graphs here stay close to the source structure; the
// analysis lowers each body further to an explicit vertex-level flow
// graph (package pfg) before solving. Node identity and edge order are
// part of the analysis's deterministic trajectory, so passes must not
// reorder AllNodes or a node's Succs.
package ir

import (
	"fmt"
	"sync"

	"mtpa/internal/ast"
	"mtpa/internal/locset"
	"mtpa/internal/sem"
	"mtpa/internal/token"
	"mtpa/internal/types"
)

// NoLoc marks an absent location-set operand.
const NoLoc locset.ID = -1

// Op identifies an IR instruction kind.
type Op int

// Instruction opcodes. The pointer-transfer opcodes correspond to the basic
// statements of Figure 2; OpField and OpArith are address computations that
// more complex assignments are preprocessed into; the data opcodes exist
// for the precision metrics (they read or write memory but transfer no
// pointer values).
const (
	OpAddrOf      Op = iota // Dst = &Src (Src is the object's location set)
	OpCopy                  // Dst = Src (pointer copy; Src may be an array/field locset)
	OpLoad                  // Dst = *Src (pointer load through pointer Src)
	OpStore                 // *Dst = Src (pointer store through pointer Dst)
	OpArith                 // Dst = Src ± i, element size Elem (pointer arithmetic)
	OpField                 // Dst = &(Src->field at offset Elem) (field address)
	OpIndexAddr             // Dst = &Src[i], element size Elem (pointer indexing address)
	OpAlloc                 // Dst = new heap block (allocation site Site)
	OpNull                  // Dst = NULL (points to unk)
	OpUnknown               // Dst = unknown pointer value (points to unk)
	OpDataLoad              // read through pointer Src; no pointer value transferred
	OpDataStore             // write through pointer Dst; no pointer value transferred
	OpDirectLoad            // read of array/struct location Src (no pointer deref)
	OpDirectStore           // write of array/struct location Dst (no pointer deref)
	OpCall                  // procedure call (direct, indirect or builtin)
	OpReturn                // jump to function exit (return value already copied to ret locset)
	OpRegLoad               // read of a named scalar variable (register-level; race detection only)
	OpRegStore              // write of a named scalar variable (register-level; race detection only)
	OpLock                  // lock(m): acquire mutex Src (NoLoc = statically unknown mutex)
	OpUnlock                // unlock(m): release mutex Src (NoLoc = statically unknown mutex)
)

func (o Op) String() string {
	switch o {
	case OpAddrOf:
		return "addrof"
	case OpCopy:
		return "copy"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpArith:
		return "arith"
	case OpField:
		return "field"
	case OpIndexAddr:
		return "indexaddr"
	case OpAlloc:
		return "alloc"
	case OpNull:
		return "null"
	case OpUnknown:
		return "unknown"
	case OpDataLoad:
		return "dataload"
	case OpDataStore:
		return "datastore"
	case OpDirectLoad:
		return "directload"
	case OpDirectStore:
		return "directstore"
	case OpCall:
		return "call"
	case OpReturn:
		return "return"
	case OpRegLoad:
		return "regload"
	case OpRegStore:
		return "regstore"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Call describes a call instruction.
type Call struct {
	// Callee is the direct target, nil for indirect or builtin calls.
	Callee *ast.FuncDecl
	// FnLoc is the function-pointer location set for indirect calls.
	FnLoc locset.ID
	// Builtin is the hardwired library function, if any.
	Builtin sem.Builtin
	// Args are the actual-parameter location sets a_i (compiler temporaries
	// holding the argument values, §3.10.1).
	Args []locset.ID
	// ArgPtr records which arguments carry pointer values.
	ArgPtr []bool
	// Ret is the call-site result location set r_s, or NoLoc.
	Ret locset.ID
	// RetPtr records whether the result is a pointer value.
	RetPtr bool
}

// Instr is a single IR instruction.
type Instr struct {
	Op   Op
	Dst  locset.ID
	Src  locset.ID
	Elem int64 // element size (OpArith, OpIndexAddr) or field offset (OpField)
	Site int   // allocation-site index (OpAlloc)
	Call *Call
	Pos  token.Pos

	// PtrTarget records, for the address-computation opcodes (OpField,
	// OpIndexAddr, OpArith), whether the addressed locations hold pointer
	// values; the analysis uses it when interning derived location sets.
	PtrTarget bool

	// AccID is a dense index over pointer-dereferencing load/store
	// instructions (the accesses measured in Tables 2/4 and Figures 8/9),
	// or -1.
	AccID int
	// Strong, for the direct-store forms, is determined dynamically by the
	// analysis; nothing is precomputed here.
}

// IsLoadInstr reports whether the instruction is a load in the SUIF sense
// (reads memory via an array access or pointer dereference).
func (in *Instr) IsLoadInstr() bool {
	switch in.Op {
	case OpLoad, OpDataLoad, OpDirectLoad:
		return true
	}
	return false
}

// IsStoreInstr reports whether the instruction is a store in the SUIF
// sense.
func (in *Instr) IsStoreInstr() bool {
	switch in.Op {
	case OpStore, OpDataStore, OpDirectStore:
		return true
	}
	return false
}

// DerefsPointer reports whether the instruction accesses memory by
// dereferencing a pointer (the accesses counted by the precision metrics).
func (in *Instr) DerefsPointer() bool {
	switch in.Op {
	case OpLoad, OpStore, OpDataLoad, OpDataStore:
		return true
	}
	return false
}

// NodeKind classifies a flow-graph node.
type NodeKind int

// Flow-graph node kinds.
const (
	NodeBlock  NodeKind = iota // straight-line instructions
	NodePar                    // par construct: parbegin/threads/parend
	NodeParFor                 // parallel loop construct
)

// Node is a vertex of the parallel flow graph.
type Node struct {
	ID   int
	Kind NodeKind
	Fn   *Func

	// Instrs holds the instructions of a NodeBlock.
	Instrs []*Instr

	// Threads are the child-thread bodies of a NodePar. CondThread marks
	// threads that may not execute (conditionally spawned children,
	// §3.11): their killed edges are added back before the parend
	// intersection.
	Threads    []*Body
	CondThread []bool

	// Detached marks threads created by thread_create with no matching
	// join in the creating statement list: they outlive the region, so
	// their effects extend the interference environment of everything
	// downstream instead of being joined at the parend. nil means every
	// thread is joined at the region end (the structured par case).
	Detached []bool

	// Body is the replicated thread body of a NodeParFor.
	Body *Body

	Succs []*Node
	Preds []*Node

	// Pos is the source position of the construct, for reporting.
	Pos token.Pos
}

// DetachedThread reports whether thread i of a NodePar region is
// detached (created without a matching join).
func (n *Node) DetachedThread(i int) bool { return n.Detached != nil && n.Detached[i] }

// HasDetached reports whether any thread of the region is detached.
func (n *Node) HasDetached() bool {
	for _, d := range n.Detached {
		if d {
			return true
		}
	}
	return false
}

func (n *Node) addSucc(s *Node) {
	n.Succs = append(n.Succs, s)
	s.Preds = append(s.Preds, n)
}

// Body is a single-entry, single-exit sub-flow-graph: a function body or a
// thread body. Entry and Exit are empty block nodes (the begin/end vertices
// of §3.3).
type Body struct {
	Entry *Node
	Exit  *Node
	Nodes []*Node // all nodes, including Entry and Exit, excluding nested bodies
}

// Func is the IR for one procedure.
type Func struct {
	Decl *ast.FuncDecl
	Name string
	Body *Body

	// ParamBlocks are the memory blocks of the formal parameters (F_p).
	ParamBlocks []*locset.Block
	// ParamLocs are the scalar location sets of the formals in order.
	ParamLocs []locset.ID
	// ParamPtr records which formals carry pointer values.
	ParamPtr []bool
	// RetLoc is the return-value location set r_p, or NoLoc for void.
	RetLoc locset.ID
	// RetPtr records whether the function returns a pointer value.
	RetPtr bool

	// AllNodes lists every node in the function, including nodes inside
	// nested par/parfor bodies (for counting and iteration).
	AllNodes []*Node

	// NumInstrs counts instructions for the complexity metrics.
	NumInstrs int

	// Per-procedure unstructured-concurrency site counters (the program
	// totals live on Program): thread_create statements, joins matched to
	// a create in their statement list, and lock/unlock statements.
	CreateSites int
	JoinSites   int
	LockSites   int
	UnlockSites int
}

// Program is the IR for a whole translation unit.
type Program struct {
	Info   *sem.Info
	Table  *locset.Table
	Funcs  []*Func
	ByDecl map[*ast.FuncDecl]*Func
	Main   *Func

	// SiteTypes holds each allocation site's element type, indexed by
	// site ID, copied from the AST when lowering. Analyses read it here:
	// a session shares cached procedure ASTs between updates, and every
	// later semantic check rewrites the AST node's own SiteType field.
	SiteTypes []*types.Type

	// Accesses lists the pointer-dereferencing load/store instructions in
	// AccID order, with their owning function.
	Accesses []Access

	// Counters for Table 1.
	NumLoads            int
	NumStores           int
	NumPtrLoads         int
	NumPtrStores        int
	ThreadCreationSites int

	// Unstructured-concurrency counters and flags.
	JoinSites   int // join(t) statements matched to a create in their list
	LockSites   int // lock(m) statements
	UnlockSites int // unlock(m) statements
	// HasDetachedThreads records whether any region contains a detached
	// (join-less) thread; the analysis gates summary seeding and extends
	// budget degradation with the escape environment when set.
	HasDetachedThreads bool

	// Warnings from lowering (e.g. unstructured spawn fallbacks).
	Warnings []string

	// Cached ParReachable answer (reach.go); the IR is immutable after
	// lowering, so the closure is computed at most once.
	parReachOnce sync.Once
	parReachable bool
}

// Access identifies one measured memory access.
type Access struct {
	Instr *Instr
	Fn    *Func
}

// FuncOf returns the IR function for a declaration, or nil.
func (p *Program) FuncOf(d *ast.FuncDecl) *Func { return p.ByDecl[d] }
