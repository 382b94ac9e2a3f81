// AST-to-IR lowering: preprocesses MiniCilk programs into the standard form
// of §3.2, where every pointer assignment is one of the four basic
// statements (plus explicit address computations), and builds the parallel
// flow graph of §3.3.

package ir

import (
	"fmt"

	"mtpa/internal/ast"
	"mtpa/internal/errs"
	"mtpa/internal/locset"
	"mtpa/internal/sem"
	"mtpa/internal/token"
	"mtpa/internal/types"
)

// Lower translates a checked program into IR.
func Lower(info *sem.Info) (*Program, error) {
	prog := &Program{
		Info:   info,
		Table:  locset.NewTable(),
		ByDecl: map[*ast.FuncDecl]*Func{},
	}
	lo := &lowerer{prog: prog, tab: prog.Table, info: info}
	prog.SiteTypes = make([]*types.Type, len(info.AllocSites))
	for i, site := range info.AllocSites {
		prog.SiteTypes[i] = site.SiteType
	}

	// Create function shells first so calls can reference them.
	for _, fd := range info.Funcs {
		fn := &Func{Decl: fd, Name: fd.Name}
		prog.Funcs = append(prog.Funcs, fn)
		prog.ByDecl[fd] = fn
	}
	for _, fn := range prog.Funcs {
		lo.lowerFunc(fn)
	}
	if info.Main != nil {
		prog.Main = prog.ByDecl[info.Main]
	}
	return prog, nil
}

type loopCtx struct {
	brk, cont *Node
}

type lowerer struct {
	prog *Program
	tab  *locset.Table
	info *sem.Info

	fn    *Func
	body  *Body
	cur   *Node
	loops []loopCtx
	// inThread is non-zero while lowering a par thread body (break/continue
	// across thread boundaries are rejected).
	inThread int
}

func (lo *lowerer) warnf(pos token.Pos, format string, args ...any) {
	lo.prog.Warnings = append(lo.prog.Warnings, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// ---------------------------------------------------------------------------
// CFG construction helpers

func (lo *lowerer) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(lo.fn.AllNodes), Kind: kind, Fn: lo.fn}
	lo.fn.AllNodes = append(lo.fn.AllNodes, n)
	if lo.body != nil {
		lo.body.Nodes = append(lo.body.Nodes, n)
	}
	return n
}

func (lo *lowerer) newBody() *Body {
	saved := lo.body
	b := &Body{}
	lo.body = b
	b.Entry = lo.newNode(NodeBlock)
	b.Exit = lo.newNode(NodeBlock)
	lo.body = saved
	return b
}

// startBlock makes a fresh block the current one, linked from the previous
// current block.
func (lo *lowerer) startBlock() *Node {
	n := lo.newNode(NodeBlock)
	if lo.cur != nil {
		lo.cur.addSucc(n)
	}
	lo.cur = n
	return n
}

func (lo *lowerer) emit(in *Instr) *Instr {
	in.AccID = -1
	if in.DerefsPointer() {
		in.AccID = len(lo.prog.Accesses)
		lo.prog.Accesses = append(lo.prog.Accesses, Access{Instr: in, Fn: lo.fn})
	}
	if in.IsLoadInstr() {
		lo.prog.NumLoads++
		if in.DerefsPointer() {
			lo.prog.NumPtrLoads++
		}
	}
	if in.IsStoreInstr() {
		lo.prog.NumStores++
		if in.DerefsPointer() {
			lo.prog.NumPtrStores++
		}
	}
	lo.cur.Instrs = append(lo.cur.Instrs, in)
	lo.fn.NumInstrs++
	return in
}

// temp creates a fresh temporary location set of the given type.
func (lo *lowerer) temp(t *types.Type) locset.ID {
	b := lo.tab.NewTemp(lo.fn.Decl, t)
	return lo.tab.Intern(b, 0, 0, t.HoldsPointer())
}

// ---------------------------------------------------------------------------
// Function lowering

func (lo *lowerer) lowerFunc(fn *Func) {
	lo.fn = fn
	fd := fn.Decl

	for _, p := range fd.Params {
		if p.Sym == nil {
			continue
		}
		b := lo.tab.SymBlock(p.Sym)
		fn.ParamBlocks = append(fn.ParamBlocks, b)
		fn.ParamLocs = append(fn.ParamLocs, lo.tab.Intern(b, 0, 0, p.Type.HoldsPointer()))
		fn.ParamPtr = append(fn.ParamPtr, p.Type.HoldsPointer())
	}
	fn.RetPtr = fd.Result.HoldsPointer()
	if fd.Result.Kind != types.Void {
		rb := lo.tab.RetBlock(fd)
		fn.RetLoc = lo.tab.Intern(rb, 0, 0, fn.RetPtr)
	} else {
		fn.RetLoc = NoLoc
	}

	fn.Body = lo.newBody()
	lo.body = fn.Body
	lo.cur = fn.Body.Entry

	// Global initialisers run at program start: lower them at the head of
	// main.
	if fd == lo.info.Main {
		for _, g := range lo.info.Program.Globals {
			if g.Init != nil && g.Sym != nil {
				lo.lowerAssignTo(lvalForSym(lo, g.Sym), g.Init, g.Sym.Type)
			}
		}
	}

	lo.lowerStmtList(fd.Body.List, true)
	if lo.cur != nil {
		lo.cur.addSucc(fn.Body.Exit)
	}
	lo.cur = nil
	lo.body = nil
	lo.fn = nil
}

// ---------------------------------------------------------------------------
// Cilk spawn/sync recognition (§3.11)
//
// Statement lists are scanned for structured uses of spawn and sync:
//   - a run of spawns (possibly inside if statements: conditionally created
//     threads) followed by a sync becomes a par construct; ordinary
//     statements between the spawns and the sync form the continuation
//     thread;
//   - a loop whose body spawns, immediately followed by a sync, becomes a
//     parallel loop.
// Spawns with no following sync in the same list are joined at the end of
// the list (Cilk's implicit sync at procedure end).

// spawnThread is one recognised child thread. detached marks threads
// created by thread_create with no matching join in the same statement
// list; they outlive the region they were created in.
type spawnThread struct {
	stmts    []ast.Stmt
	cond     bool
	detached bool
}

func (lo *lowerer) lowerStmts(list []ast.Stmt) { lo.lowerStmtList(list, false) }

// lowerStmtList lowers a statement list. funcTop marks the top-level list
// of a function body, where Cilk's implicit sync at procedure end closes
// any unmatched spawn group; in nested lists an unmatched spawn falls back
// to a synchronous call with a warning (the paper's compiler likewise only
// recognises structured uses of spawn and sync, §3.11).
func (lo *lowerer) lowerStmtList(list []ast.Stmt, funcTop bool) {
	i := 0
	for i < len(list) {
		s := list[i]

		// Parallel loop: loop-of-spawns followed by sync.
		if lp, ok := lo.recogniseParLoop(s); ok && i+1 < len(list) {
			if _, isSync := list[i+1].(*ast.SyncStmt); isSync {
				lo.lowerParFor(lp)
				i += 2
				continue
			}
		}

		// Unstructured create/join group: a run of thread_create statements
		// and the statements running concurrently with them, closed by the
		// join of every tracked handle (or left open: detached threads).
		if cs, ok := s.(*ast.ThreadCreateStmt); ok {
			group, next := lo.collectCreateGroup(list, i)
			lo.lowerRegionGroup(group, cs.CrPos)
			i = next
			continue
		}

		// Spawn group: spawns (conditional or not) up to a sync.
		if isSpawnish(s) {
			group, next, sawSync := lo.collectSpawnGroup(list, i)
			if !sawSync && !funcTop {
				lo.warnf(s.Pos(), "unstructured spawn with no matching sync in this block; analysed as a synchronous call")
				for _, th := range group {
					lo.lowerThreadStmts(th.stmts)
				}
				i = next
				continue
			}
			lo.lowerParGroup(group)
			i = next
			continue
		}

		lo.lowerStmt(s)
		i++
	}
}

func isSpawnish(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.SpawnStmt:
		return true
	case *ast.IfStmt:
		// A conditional whose branches spawn (possibly mixed with ordinary
		// statements) creates conditionally executed child threads.
		if containsSync(s) {
			return false
		}
		return containsSpawn(s)
	}
	return false
}

func containsSync(s ast.Stmt) bool {
	found := false
	walkStmt(s, func(st ast.Stmt) {
		if _, ok := st.(*ast.SyncStmt); ok {
			found = true
		}
	})
	return found
}

// rewriteSpawnsDeep returns a copy of s with every spawn statement
// replaced by an ordinary call, together with the number of spawns
// rewritten. ok is false when s contains structure that cannot be
// flattened into a single thread body (a sync or a nested parallel
// construct).
func rewriteSpawnsDeep(s ast.Stmt) (out ast.Stmt, n int, ok bool) {
	switch s := s.(type) {
	case nil:
		return nil, 0, true
	case *ast.SpawnStmt:
		return spawnAsCall(s), 1, true
	case *ast.SyncStmt, *ast.ParStmt, *ast.ParForStmt:
		return s, 0, false
	case *ast.BlockStmt:
		nb := &ast.BlockStmt{Lbrace: s.Lbrace}
		total := 0
		for _, st := range s.List {
			r, k, rok := rewriteSpawnsDeep(st)
			if !rok {
				return s, 0, false
			}
			total += k
			nb.List = append(nb.List, r)
		}
		return nb, total, true
	case *ast.IfStmt:
		thenS, n1, ok1 := rewriteSpawnsDeep(s.Then)
		elseS, n2, ok2 := rewriteSpawnsDeep(s.Else)
		if !ok1 || !ok2 {
			return s, 0, false
		}
		if n1+n2 == 0 {
			return s, 0, true
		}
		return &ast.IfStmt{IfPos: s.IfPos, Cond: s.Cond, Then: thenS, Else: elseS}, n1 + n2, true
	case *ast.WhileStmt:
		body, k, bok := rewriteSpawnsDeep(s.Body)
		if !bok {
			return s, 0, false
		}
		if k == 0 {
			return s, 0, true
		}
		return &ast.WhileStmt{WhilePos: s.WhilePos, Cond: s.Cond, Body: body}, k, true
	case *ast.DoWhileStmt:
		body, k, bok := rewriteSpawnsDeep(s.Body)
		if !bok {
			return s, 0, false
		}
		if k == 0 {
			return s, 0, true
		}
		return &ast.DoWhileStmt{DoPos: s.DoPos, Body: body, Cond: s.Cond}, k, true
	case *ast.ForStmt:
		body, k, bok := rewriteSpawnsDeep(s.Body)
		if !bok {
			return s, 0, false
		}
		if k == 0 {
			return s, 0, true
		}
		return &ast.ForStmt{ForPos: s.ForPos, Init: s.Init, Cond: s.Cond, Post: s.Post, Body: body}, k, true
	default:
		if containsSpawn(s) {
			return s, 0, false
		}
		return s, 0, true
	}
}

// collectSpawnGroup gathers threads from list[i:] up to and including the
// matching sync (or the end of the list: the implicit sync). It returns the
// recognised threads, the index of the next unconsumed statement, and
// whether an explicit sync was found.
func (lo *lowerer) collectSpawnGroup(list []ast.Stmt, i int) ([]spawnThread, int, bool) {
	var threads []spawnThread
	var contStmts []ast.Stmt
	sawSync := false
	j := i
	for ; j < len(list); j++ {
		s := list[j]
		if _, ok := s.(*ast.SyncStmt); ok {
			sawSync = true
			j++
			break
		}
		switch s := s.(type) {
		case *ast.SpawnStmt:
			lo.prog.ThreadCreationSites++
			threads = append(threads, spawnThread{stmts: []ast.Stmt{s}})
		case *ast.IfStmt:
			if isSpawnish(s) {
				if thenS, n, ok := rewriteSpawnsDeep(s.Then); ok && n > 0 {
					lo.prog.ThreadCreationSites += n
					threads = append(threads, spawnThread{stmts: []ast.Stmt{thenS}, cond: true})
				} else if s.Then != nil {
					contStmts = append(contStmts, s.Then)
				}
				if s.Else != nil {
					if elseS, n, ok := rewriteSpawnsDeep(s.Else); ok && n > 0 {
						lo.prog.ThreadCreationSites += n
						threads = append(threads, spawnThread{stmts: []ast.Stmt{elseS}, cond: true})
					} else {
						contStmts = append(contStmts, s.Else)
					}
				}
				// The condition expression is evaluated by the parent.
				contStmts = append(contStmts, &ast.ExprStmt{X: s.Cond})
				continue
			}
			contStmts = append(contStmts, s)
		default:
			contStmts = append(contStmts, s)
		}
	}
	if len(contStmts) > 0 {
		threads = append(threads, spawnThread{stmts: contStmts})
	}
	return threads, j, sawSync
}

// ---------------------------------------------------------------------------
// Unstructured thread_create/join recognition
//
// A statement list starting with thread_create is normalised into the same
// ThreadRegion form as a structured par: every created thread becomes a
// region thread, the ordinary statements interleaved with the creates form
// the continuation thread, and the region closes at the point where every
// tracked handle has been joined (restoring sequential flow — the
// may-happen-in-parallel pruning from create/join ordering). Threads whose
// handle is never joined in the list — or is untrackable (stored through a
// non-variable lvalue, or discarded) — are marked detached: they outlive
// the region, and the analysis extends their interference to everything
// downstream.

// collectCreateGroup gathers a create/join group from list[i:]. It returns
// the recognised threads and the index of the next unconsumed statement.
// Handle writes are emitted into the current (pre-region) block as data
// writes: handles carry no pointer values, but the writes stay visible to
// race detection.
func (lo *lowerer) collectCreateGroup(list []ast.Stmt, i int) ([]spawnThread, int) {
	var threads []spawnThread
	var contStmts []ast.Stmt
	open := map[*ast.Symbol]int{} // unjoined handle symbol -> thread index
	unjoined := 0
	j := i
collect:
	for ; j < len(list); j++ {
		s := list[j]
		switch s := s.(type) {
		case *ast.ThreadCreateStmt:
			lo.prog.ThreadCreationSites++
			lo.fn.CreateSites++
			idx := len(threads)
			threads = append(threads, spawnThread{
				stmts:    []ast.Stmt{&ast.ExprStmt{X: s.Call}},
				detached: true,
			})
			unjoined++
			if s.Handle != nil {
				lv := lo.lowerLValue(s.Handle)
				lo.dataWrite(lv, s.CrPos)
			}
			if sym := handleSym(s.Handle); sym != nil {
				// Reusing a live handle orphans the earlier thread: it can
				// no longer be joined, so it stays detached.
				open[sym] = idx
			}
		case *ast.JoinStmt:
			sym := handleSym(s.Handle)
			idx, ok := 0, false
			if sym != nil {
				idx, ok = open[sym]
			}
			if !ok {
				lo.warnf(s.JoinPos, "join has no matching thread_create in this statement list; treated as a no-op")
				continue
			}
			delete(open, sym)
			threads[idx].detached = false
			lo.prog.JoinSites++
			lo.fn.JoinSites++
			unjoined--
			if unjoined == 0 {
				// Every thread created in this group has been joined: the
				// region closes here and sequential flow resumes.
				j++
				break collect
			}
		default:
			if blocksCreateGrouping(s) {
				// A statement we cannot place inside the region (control
				// transfer out of the list, or nested synchronisation we do
				// not track): close the group before it. Still-open threads
				// stay detached.
				break collect
			}
			contStmts = append(contStmts, s)
		}
	}
	if len(contStmts) > 0 {
		threads = append(threads, spawnThread{stmts: contStmts})
	}
	return threads, j
}

// handleSym resolves a thread-handle expression to its symbol when it is a
// plain variable; any other shape is untrackable.
func handleSym(e ast.Expr) *ast.Symbol {
	if id, ok := e.(*ast.Ident); ok {
		return id.Sym
	}
	return nil
}

// blocksCreateGrouping reports whether a statement terminates a create/join
// group: control transfers out of the list, or nested thread machinery the
// group tracker would mis-attribute if it were swallowed into the
// continuation thread.
func blocksCreateGrouping(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ReturnStmt, *ast.BreakStmt, *ast.ContinueStmt:
		return true
	}
	found := false
	walkStmt(s, func(st ast.Stmt) {
		switch st.(type) {
		case *ast.ThreadCreateStmt, *ast.JoinStmt, *ast.SpawnStmt, *ast.SyncStmt,
			*ast.ParStmt, *ast.ParForStmt:
			found = true
		}
	})
	return found
}

// lowerRegionGroup lowers a create/join group. A fully joined group is
// exactly a structured par and takes the identical path; a group with
// detached threads keeps the region node and marks them.
func (lo *lowerer) lowerRegionGroup(threads []spawnThread, pos token.Pos) {
	if len(threads) == 0 {
		return
	}
	anyDetached := false
	for _, th := range threads {
		if th.detached {
			anyDetached = true
		}
	}
	if !anyDetached {
		lo.lowerParGroup(threads)
		return
	}
	lo.prog.HasDetachedThreads = true
	par := lo.newNode(NodePar)
	par.Pos = pos
	for _, th := range threads {
		tb := lo.lowerThreadBody(th.stmts)
		par.Threads = append(par.Threads, tb)
		par.CondThread = append(par.CondThread, th.cond)
		par.Detached = append(par.Detached, th.detached)
	}
	lo.cur.addSucc(par)
	lo.cur = par
	lo.startBlock()
}

// recogniseParLoop matches "for/while (...) { ... spawn ... }" shapes.
func (lo *lowerer) recogniseParLoop(s ast.Stmt) (*ast.ParForStmt, bool) {
	switch s := s.(type) {
	case *ast.ForStmt:
		if body, ok := bodyWithSpawnsAsCalls(s.Body); ok {
			return &ast.ParForStmt{ParPos: s.ForPos, Init: s.Init, Cond: s.Cond, Post: s.Post, Body: body}, true
		}
	case *ast.WhileStmt:
		if body, ok := bodyWithSpawnsAsCalls(s.Body); ok {
			return &ast.ParForStmt{ParPos: s.WhilePos, Cond: s.Cond, Body: body}, true
		}
	}
	return nil, false
}

// bodyWithSpawnsAsCalls rewrites every spawn in a loop body to an
// ordinary call (the parallel-loop dataflow replicates the whole body as
// the thread, so internal control flow around the spawned calls is fine).
// It fails when the body contains no spawns or nested synchronisation.
func bodyWithSpawnsAsCalls(body ast.Stmt) (ast.Stmt, bool) {
	out, n, ok := rewriteSpawnsDeep(body)
	if !ok || n == 0 {
		return nil, false
	}
	return out, true
}

func spawnAsCall(sp *ast.SpawnStmt) ast.Stmt {
	if sp.LHS == nil {
		return &ast.ExprStmt{X: sp.Call}
	}
	as := &ast.AssignExpr{OpPos: sp.SpawnPos, Op: token.ASSIGN, X: sp.LHS, Y: sp.Call}
	as.SetType(sp.LHS.Type())
	return &ast.ExprStmt{X: as}
}

func containsSpawn(s ast.Stmt) bool {
	found := false
	walkStmt(s, func(st ast.Stmt) {
		if _, ok := st.(*ast.SpawnStmt); ok {
			found = true
		}
	})
	return found
}

func walkStmt(s ast.Stmt, f func(ast.Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			walkStmt(st, f)
		}
	case *ast.IfStmt:
		walkStmt(s.Then, f)
		walkStmt(s.Else, f)
	case *ast.WhileStmt:
		walkStmt(s.Body, f)
	case *ast.DoWhileStmt:
		walkStmt(s.Body, f)
	case *ast.ForStmt:
		walkStmt(s.Init, f)
		walkStmt(s.Body, f)
	case *ast.ParForStmt:
		walkStmt(s.Init, f)
		walkStmt(s.Body, f)
	case *ast.ParStmt:
		for _, t := range s.Threads {
			walkStmt(t, f)
		}
	}
}

// lowerParGroup lowers a recognised spawn group as a par construct.
func (lo *lowerer) lowerParGroup(threads []spawnThread) {
	if len(threads) == 0 {
		return
	}
	if len(threads) == 1 && !threads[0].cond {
		// A single thread joined immediately: no parallelism; lower inline.
		lo.lowerThreadStmts(threads[0].stmts)
		return
	}
	par := lo.newNode(NodePar)
	for _, th := range threads {
		tb := lo.lowerThreadBody(th.stmts)
		par.Threads = append(par.Threads, tb)
		par.CondThread = append(par.CondThread, th.cond)
	}
	lo.cur.addSucc(par)
	lo.cur = par
	lo.startBlock()
}

// lowerThreadStmts lowers statements inline (spawn statements become plain
// calls).
func (lo *lowerer) lowerThreadStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		if sp, ok := s.(*ast.SpawnStmt); ok {
			lo.lowerStmt(spawnAsCall(sp))
			continue
		}
		lo.lowerStmt(s)
	}
}

// lowerThreadBody lowers statements into a fresh thread body.
func (lo *lowerer) lowerThreadBody(stmts []ast.Stmt) *Body {
	savedBody, savedCur := lo.body, lo.cur
	tb := lo.newBody()
	lo.body = tb
	lo.cur = tb.Entry
	lo.inThread++
	lo.lowerThreadStmts(stmts)
	lo.inThread--
	if lo.cur != nil {
		lo.cur.addSucc(tb.Exit)
	}
	lo.body, lo.cur = savedBody, savedCur
	return tb
}

// ---------------------------------------------------------------------------
// Statement lowering

func (lo *lowerer) lowerStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		lo.lowerStmts(s.List)
	case *ast.EmptyStmt:
	case *ast.ExprStmt:
		lo.lowerExpr(s.X)
	case *ast.DeclStmt:
		vd := s.Decl
		if vd.Init != nil && vd.Sym != nil {
			lo.lowerAssignTo(lvalForSym(lo, vd.Sym), vd.Init, vd.Sym.Type)
		}
	case *ast.DeclGroup:
		for _, d := range s.Decls {
			lo.lowerStmt(d)
		}
	case *ast.IfStmt:
		lo.lowerExpr(s.Cond)
		head := lo.cur
		thenEntry := lo.newNode(NodeBlock)
		head.addSucc(thenEntry)
		lo.cur = thenEntry
		lo.lowerStmt(s.Then)
		thenExit := lo.cur
		join := lo.newNode(NodeBlock)
		if thenExit != nil {
			thenExit.addSucc(join)
		}
		if s.Else != nil {
			elseEntry := lo.newNode(NodeBlock)
			head.addSucc(elseEntry)
			lo.cur = elseEntry
			lo.lowerStmt(s.Else)
			if lo.cur != nil {
				lo.cur.addSucc(join)
			}
		} else {
			head.addSucc(join)
		}
		lo.cur = join
	case *ast.WhileStmt:
		headEntry := lo.startBlock()
		lo.lowerExpr(s.Cond)
		head := lo.cur
		exit := lo.newNode(NodeBlock)
		head.addSucc(exit)
		bodyEntry := lo.newNode(NodeBlock)
		head.addSucc(bodyEntry)
		lo.cur = bodyEntry
		lo.loops = append(lo.loops, loopCtx{brk: exit, cont: headEntry})
		lo.lowerStmt(s.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if lo.cur != nil {
			lo.cur.addSucc(headEntry)
		}
		lo.cur = exit
	case *ast.DoWhileStmt:
		bodyEntry := lo.startBlock()
		exit := lo.newNode(NodeBlock)
		condBlk := lo.newNode(NodeBlock)
		lo.loops = append(lo.loops, loopCtx{brk: exit, cont: condBlk})
		lo.lowerStmt(s.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if lo.cur != nil {
			lo.cur.addSucc(condBlk)
		}
		lo.cur = condBlk
		lo.lowerExpr(s.Cond)
		lo.cur.addSucc(bodyEntry)
		lo.cur.addSucc(exit)
		lo.cur = exit
	case *ast.ForStmt:
		if s.Init != nil {
			lo.lowerStmt(s.Init)
		}
		headEntry := lo.startBlock()
		if s.Cond != nil {
			lo.lowerExpr(s.Cond)
		}
		head := lo.cur
		exit := lo.newNode(NodeBlock)
		head.addSucc(exit)
		bodyEntry := lo.newNode(NodeBlock)
		head.addSucc(bodyEntry)
		postBlk := lo.newNode(NodeBlock)
		lo.cur = bodyEntry
		lo.loops = append(lo.loops, loopCtx{brk: exit, cont: postBlk})
		lo.lowerStmt(s.Body)
		lo.loops = lo.loops[:len(lo.loops)-1]
		if lo.cur != nil {
			lo.cur.addSucc(postBlk)
		}
		lo.cur = postBlk
		if s.Post != nil {
			lo.lowerExpr(s.Post)
		}
		lo.cur.addSucc(headEntry)
		lo.cur = exit
	case *ast.ReturnStmt:
		if s.Value != nil && lo.fn.RetLoc != NoLoc {
			if lo.fn.RetPtr {
				v := lo.lowerPtrValue(s.Value)
				lo.emit(&Instr{Op: OpCopy, Dst: lo.fn.RetLoc, Src: v, Pos: s.RetPos})
			} else {
				lo.lowerExpr(s.Value)
			}
		} else if s.Value != nil {
			lo.lowerExpr(s.Value)
		}
		lo.emit(&Instr{Op: OpReturn, Dst: NoLoc, Src: NoLoc, Pos: s.RetPos})
		lo.cur.addSucc(lo.body.Exit)
		// Continue lowering any unreachable tail into a detached block.
		lo.cur = lo.newNode(NodeBlock)
	case *ast.BreakStmt:
		if len(lo.loops) > 0 {
			lo.cur.addSucc(lo.loops[len(lo.loops)-1].brk)
		}
		lo.cur = lo.newNode(NodeBlock)
	case *ast.ContinueStmt:
		if len(lo.loops) > 0 {
			lo.cur.addSucc(lo.loops[len(lo.loops)-1].cont)
		}
		lo.cur = lo.newNode(NodeBlock)
	case *ast.ParStmt:
		par := lo.newNode(NodePar)
		for _, t := range s.Threads {
			par.Threads = append(par.Threads, lo.lowerThreadBody(t.List))
			par.CondThread = append(par.CondThread, false)
			lo.prog.ThreadCreationSites++
		}
		par.Pos = s.ParPos
		lo.cur.addSucc(par)
		lo.cur = par
		lo.startBlock()
	case *ast.ParForStmt:
		lo.lowerParFor(s)
	case *ast.SpawnStmt:
		// A spawn outside any recognised structure: analysed as a
		// synchronous call (conservative for points-to: the par grouping in
		// lowerStmts handles structured uses; this is the fallback).
		lo.warnf(s.SpawnPos, "unstructured spawn analysed as a synchronous call")
		lo.lowerStmt(spawnAsCall(s))
	case *ast.SyncStmt:
		// A sync with no preceding spawns in this list: no-op.
	case *ast.ThreadCreateStmt:
		// A create outside any recognised statement-list group (e.g. the
		// bare branch of an if): a one-thread detached region.
		lo.prog.ThreadCreationSites++
		lo.fn.CreateSites++
		if s.Handle != nil {
			lv := lo.lowerLValue(s.Handle)
			lo.dataWrite(lv, s.CrPos)
		}
		lo.lowerRegionGroup([]spawnThread{{
			stmts:    []ast.Stmt{&ast.ExprStmt{X: s.Call}},
			detached: true,
		}}, s.CrPos)
	case *ast.JoinStmt:
		// A join with no matching create in its statement list: the thread
		// it names was analysed as detached, so waiting is a sound no-op.
		lo.warnf(s.JoinPos, "join has no matching thread_create in this statement list; treated as a no-op")
		lo.lowerExpr(s.Handle)
	case *ast.LockStmt:
		lo.lowerLockOp(OpLock, s.X, s.LockPos)
	case *ast.UnlockStmt:
		lo.lowerLockOp(OpUnlock, s.X, s.UnlockPos)
	default:
		panic(errs.ICE(s.Pos().String(), "ir: unknown statement %T", s))
	}
}

// lowerLockOp lowers lock(m)/unlock(m). The mutex operand becomes the
// instruction's Src location set when it is statically addressable; an
// unknown mutex lowers to NoLoc, which the race client treats as "clears
// every must-held lock" (sound: less suppression).
func (lo *lowerer) lowerLockOp(op Op, x ast.Expr, pos token.Pos) {
	src := NoLoc
	if b, off, stride, _, _, ok := lo.tryDirect(x); ok {
		src = lo.tab.Intern(b, off, stride, false)
	} else {
		lo.lowerExpr(x)
		lo.warnf(pos, "%s on a statically unknown mutex", op)
	}
	if op == OpLock {
		lo.prog.LockSites++
		lo.fn.LockSites++
	} else {
		lo.prog.UnlockSites++
		lo.fn.UnlockSites++
	}
	lo.emit(&Instr{Op: op, Dst: NoLoc, Src: src, Pos: pos})
}

func (lo *lowerer) lowerParFor(s *ast.ParForStmt) {
	if s.Init != nil {
		lo.lowerStmt(s.Init)
	}
	lo.prog.ThreadCreationSites++
	pf := lo.newNode(NodeParFor)
	pf.Pos = s.ParPos

	savedBody, savedCur := lo.body, lo.cur
	tb := lo.newBody()
	lo.body = tb
	lo.cur = tb.Entry
	lo.inThread++
	if s.Cond != nil {
		lo.lowerExpr(s.Cond)
	}
	lo.lowerStmt(s.Body)
	if s.Post != nil {
		lo.lowerExpr(s.Post)
	}
	lo.inThread--
	if lo.cur != nil {
		lo.cur.addSucc(tb.Exit)
	}
	lo.body, lo.cur = savedBody, savedCur

	pf.Body = tb
	lo.cur.addSucc(pf)
	lo.cur = pf
	lo.startBlock()
}

// ---------------------------------------------------------------------------
// Lvalues

// lval describes a lowered lvalue: either a direct location set (a
// variable, field, or array element reached without dereferencing any
// pointer) or an address held in a pointer-valued location set.
type lval struct {
	direct   bool
	loc      locset.ID // direct location set
	addr     locset.ID // pointer location set holding the address
	indexed  bool      // the direct path goes through an array index
	elemType *types.Type
}

func lvalForSym(lo *lowerer, sym *ast.Symbol) lval {
	b := lo.tab.SymBlock(sym)
	return lval{
		direct:   true,
		loc:      lo.tab.Intern(b, 0, 0, sym.Type.HoldsPointer()),
		elemType: sym.Type,
	}
}

// directPath computes a static ⟨block, offset, stride⟩ for an lvalue that
// involves no pointer dereference. Following the paper's location-set
// model, any array index collapses to the whole element sequence
// ⟨a, f, elemsize⟩.
func (lo *lowerer) directPath(e ast.Expr) (b *locset.Block, off, stride int64, elem *types.Type, indexed, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Sym == nil || e.Sym.Kind == ast.SymFunc {
			return nil, 0, 0, nil, false, false
		}
		return lo.tab.SymBlock(e.Sym), 0, 0, e.Sym.Type, false, true
	case *ast.MemberExpr:
		if e.Arrow || e.Field == nil {
			return nil, 0, 0, nil, false, false
		}
		b, off, stride, _, indexed, ok = lo.directPath(e.X)
		if !ok {
			return nil, 0, 0, nil, false, false
		}
		off += e.Field.Offset
		if stride > 0 {
			off = ((off % stride) + stride) % stride
		}
		return b, off, stride, e.Field.Type, indexed, true
	case *ast.IndexExpr:
		b, off, stride, elem, _, ok = lo.directPath(e.X)
		if !ok || elem == nil || !elem.IsArray() {
			return nil, 0, 0, nil, false, false
		}
		// Lower the index expression for its side effects and metrics.
		lo.lowerExpr(e.Index)
		esz := elem.Elem.Size()
		s := gcd64(stride, esz)
		if s > 0 {
			off = ((off % s) + s) % s
		}
		return b, off, s, elem.Elem, true, true
	case *ast.CastExpr:
		return lo.directPath(e.X)
	}
	return nil, 0, 0, nil, false, false
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lowerLValue lowers an lvalue expression.
func (lo *lowerer) lowerLValue(e ast.Expr) lval {
	// Try the direct path first.
	if b, off, stride, elem, indexed, ok := lo.tryDirect(e); ok {
		return lval{
			direct:   true,
			loc:      lo.tab.Intern(b, off, stride, elem.HoldsPointer()),
			indexed:  indexed,
			elemType: elem,
		}
	}
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.STAR {
			addr := lo.lowerPtrValue(e.X)
			return lval{addr: addr, elemType: e.Type()}
		}
	case *ast.MemberExpr:
		// X->f, or X.f where X itself is not direct (e.g. (*p).f parses as
		// member on a deref).
		var base locset.ID
		if e.Arrow {
			base = lo.lowerPtrValue(e.X)
		} else {
			inner := lo.lowerLValue(e.X)
			if inner.direct {
				// Should have been handled by tryDirect; fall through
				// defensively via an address-of.
				t := lo.temp(types.PointerTo(e.X.Type()))
				lo.emit(&Instr{Op: OpAddrOf, Dst: t, Src: inner.loc, Pos: e.Pos()})
				base = t
			} else {
				base = inner.addr
			}
		}
		ft := e.Field
		t := lo.temp(types.PointerTo(ft.Type))
		lo.emit(&Instr{
			Op: OpField, Dst: t, Src: base, Elem: ft.Offset,
			PtrTarget: ft.Type.HoldsPointer(), Pos: e.Pos(),
		})
		return lval{addr: t, elemType: ft.Type, indexed: false}
	case *ast.IndexExpr:
		// Pointer indexing p[i].
		base := lo.lowerPtrValue(e.X)
		lo.lowerExpr(e.Index)
		et := e.X.Type().Elem
		t := lo.temp(types.PointerTo(et))
		lo.emit(&Instr{
			Op: OpIndexAddr, Dst: t, Src: base, Elem: et.Size(),
			PtrTarget: et.HoldsPointer(), Pos: e.Pos(),
		})
		return lval{addr: t, elemType: et}
	case *ast.CastExpr:
		lv := lo.lowerLValue(e.X)
		lv.elemType = e.To
		return lv
	}
	// Fallback: unknown lvalue.
	t := lo.temp(types.PointerTo(types.VoidType))
	lo.emit(&Instr{Op: OpUnknown, Dst: t, Src: NoLoc, Pos: e.Pos()})
	return lval{addr: t, elemType: e.Type()}
}

// lowerAssignTo lowers "lv = rhs" where declType is the assigned value
// type (used for declarations with initialisers and plain assignments).
func (lo *lowerer) lowerAssignTo(lv lval, rhs ast.Expr, declType *types.Type) {
	switch {
	case declType.IsPointer():
		v := lo.lowerPtrValue(rhs)
		lo.storeTo(lv, v, rhs.Pos())
	case declType.IsStruct():
		lo.structAssign(lv, rhs, declType)
	default:
		lo.lowerExpr(rhs)
		lo.dataWrite(lv, rhs.Pos())
	}
}

// tryDirect is directPath but quiet about failure.
func (lo *lowerer) tryDirect(e ast.Expr) (b *locset.Block, off, stride int64, elem *types.Type, indexed, ok bool) {
	switch e.(type) {
	case *ast.Ident, *ast.MemberExpr, *ast.IndexExpr, *ast.CastExpr:
		return lo.directPath(e)
	}
	return nil, 0, 0, nil, false, false
}

// markPtrTarget notes field pointer-ness on the temporary's element type
// (kept implicit: the Elem interning inside the analysis consults the
// instruction's PtrTarget flag, stored via Instr.Elem users; see core).
func (lo *lowerer) markPtrTarget(t locset.ID, typ *types.Type) {
	_ = t
	_ = typ
}
