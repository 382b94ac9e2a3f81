// Canonical, table-independent encodings of analysis state, used by the
// incremental session layer (internal/session) to carry per-context
// summaries across analysis runs. Every run builds a fresh location-set
// table, so block pointers and location-set IDs never survive an update;
// summaries therefore name everything structurally — blocks by canonical
// string keys derived from source-level identity, contexts by a hash of
// their canonically rendered ⟨C_p, I_p, ghost⟩ inputs — and are resolved
// back into the current table on demand. Resolution is all-or-nothing: a
// key that no longer names exactly one block in the current program makes
// the whole summary miss, never mis-resolve.

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mtpa/internal/ir"
	"mtpa/internal/locset"
	"mtpa/internal/ptgraph"
)

// CanonLoc is a location set named canonically: the block key plus the
// ⟨offset, stride⟩ pair and the pointer flag.
type CanonLoc struct {
	Block   string
	Offset  int64
	Stride  int64
	Pointer bool
}

func (l CanonLoc) String() string {
	return l.Block + "|" + strconv.FormatInt(l.Offset, 10) + "|" +
		strconv.FormatInt(l.Stride, 10) + "|" + strconv.FormatBool(l.Pointer)
}

// CanonEdge is one points-to edge between canonically named location sets.
type CanonEdge struct {
	Src, Dst CanonLoc
}

// CanonGhost records the actual source blocks one ghost block stands for
// in a context, all canonically named. The ghost is named by its global
// pool name ("ghost#k" / "sghost#k"): contexts number their ghosts
// canonically, so an unchanged calling chain reproduces the same indices,
// and a changed one changes the context key — a safe miss, never a wrong
// hit.
type CanonGhost struct {
	Ghost string
	Srcs  []string // sorted canonical block keys
}

// InstrRef names one IR instruction structurally: function name, node
// index within the function, instruction index within the node.
type InstrRef struct {
	Fn   string
	Node int
	Idx  int
}

// canonizer maintains the block-key bijection for one analysis run. Keys
// are assigned lazily by scanning the table's block list (blocks created
// after the last scan are picked up by the next extend call).
type canonizer struct {
	prog *ir.Program
	tab  *locset.Table

	keys    map[*locset.Block]string
	resolve map[string]*locset.Block
	ambig   map[string]bool
	occ     map[occKey]int
	scanned int

	// rendered caches renderLoc per location set and resolved caches
	// resolveLoc per canonical location. Both are dropped whenever a
	// block key turns ambiguous; entries whose sticky pointer flag has
	// since changed are recomputed.
	rendered map[locset.ID]*renderedLoc
	resolved map[CanonLoc]locset.ID

	sitesByPos map[string]int // "line:col" → allocation site index
	strIndex   map[string]int // canonical string key → StringLits index

	fnByName map[string]*ir.Func
	instrRef map[*ir.Instr]InstrRef

	// accOrd maps a global access ID to its per-function ordinal, and
	// accID maps back from (function, ordinal); ordinals are stable across
	// edits to other procedures while global access IDs are not.
	accOrd map[int]int
	accID  map[accOrdKey]int
}

type occKey struct {
	kind locset.BlockKind
	name string
}

type accOrdKey struct {
	fn  string
	ord int
}

func newCanonizer(prog *ir.Program) *canonizer {
	nblocks := len(prog.Table.Blocks())
	c := &canonizer{
		prog:       prog,
		tab:        prog.Table,
		keys:       make(map[*locset.Block]string, nblocks),
		resolve:    make(map[string]*locset.Block, nblocks),
		ambig:      map[string]bool{},
		occ:        map[occKey]int{},
		sitesByPos: map[string]int{},
		strIndex:   map[string]int{},
		fnByName:   map[string]*ir.Func{},
		accOrd:     map[int]int{},
		accID:      map[accOrdKey]int{},
	}
	for i, site := range prog.Info.AllocSites {
		pos := fmt.Sprintf("%d:%d", site.AllocPos.Line, site.AllocPos.Col)
		if _, dup := c.sitesByPos[pos]; dup {
			c.sitesByPos[pos] = -1 // ambiguous position: resolution misses
		} else {
			c.sitesByPos[pos] = i
		}
	}
	strOcc := map[string]int{}
	for i, lit := range prog.Info.StringLits {
		n := strOcc[lit.Value]
		strOcc[lit.Value] = n + 1
		c.strIndex[stringKey(lit.Value, n)] = i
	}
	for _, fn := range prog.Funcs {
		c.fnByName[fn.Name] = fn
	}
	perFn := map[string]int{}
	for id, acc := range prog.Accesses {
		ord := perFn[acc.Fn.Name]
		perFn[acc.Fn.Name] = ord + 1
		c.accOrd[id] = ord
		c.accID[accOrdKey{fn: acc.Fn.Name, ord: ord}] = id
	}
	return c
}

func stringKey(value string, occ int) string {
	return "s:" + strconv.Quote(value) + "#" + strconv.Itoa(occ)
}

// extend assigns keys to blocks created since the last scan.
func (c *canonizer) extend() {
	blocks := c.tab.Blocks()
	for ; c.scanned < len(blocks); c.scanned++ {
		b := blocks[c.scanned]
		key, ok := c.blockKey(b)
		if !ok {
			continue
		}
		c.keys[b] = key
		if _, dup := c.resolve[key]; dup {
			c.ambig[key] = true
			delete(c.resolve, key)
			c.rendered, c.resolved = nil, nil
		} else if !c.ambig[key] {
			c.resolve[key] = b
		}
	}
}

// blockKey derives the canonical key of a block from source-level
// identity. The kind tag is part of the key, so e.g. flipping a global's
// `private` annotation renames every location set of that block and with
// it every context key it appears in — exactly the summaries that could
// observe the change miss.
func (c *canonizer) blockKey(b *locset.Block) (string, bool) {
	typ := ""
	if b.Type != nil {
		typ = b.Type.String()
	}
	switch b.Kind {
	case locset.KindUnk:
		return "unk", true
	case locset.KindGlobal:
		return "g:" + b.Name + ":" + typ, true
	case locset.KindPrivateGlobal:
		return "p:" + b.Name + ":" + typ, true
	case locset.KindLocal:
		return c.occKey("l:", b, typ), true
	case locset.KindParam:
		return c.occKey("a:", b, typ), true
	case locset.KindTemp:
		return "t:" + b.Name, true // temp names are unique per function
	case locset.KindRet:
		return "r:" + b.Name, true
	case locset.KindFunc:
		return "f:" + b.Name, true
	case locset.KindHeap:
		if b.Site < 0 || b.Site >= len(c.prog.Info.AllocSites) {
			return "", false
		}
		pos := c.prog.Info.AllocSites[b.Site].AllocPos
		return fmt.Sprintf("h:%d:%d:%s", pos.Line, pos.Col, typ), true
	case locset.KindString:
		if b.Site < 0 || b.Site >= len(c.prog.Info.StringLits) {
			return "", false
		}
		value := c.prog.Info.StringLits[b.Site].Value
		occ := 0
		for _, lit := range c.prog.Info.StringLits[:b.Site] {
			if lit.Value == value {
				occ++
			}
		}
		return stringKey(value, occ), true
	case locset.KindGhost:
		return "gh:" + b.Name, true // global pool name, "ghost#k"/"sghost#k"
	}
	return "", false
}

// occKey disambiguates same-named blocks (shadowed locals) by their
// occurrence index among blocks of the same kind and name, in table
// creation order — which lowering reproduces deterministically.
func (c *canonizer) occKey(tag string, b *locset.Block, typ string) string {
	k := occKey{kind: b.Kind, name: b.Name}
	n := c.occ[k]
	c.occ[k] = n + 1
	return tag + b.Name + ":" + typ + "#" + strconv.Itoa(n)
}

// encodeBlock returns the canonical key of a block.
func (c *canonizer) encodeBlock(b *locset.Block) (string, bool) {
	c.extend()
	key, ok := c.keys[b]
	if !ok || c.ambig[key] {
		return "", false
	}
	return key, true
}

// resolveBlock maps a canonical key back to a block of the current table,
// creating pooled ghost, heap and string blocks on demand (those are the
// only kinds the analysis itself materialises lazily; everything else
// must already exist or the key misses).
func (c *canonizer) resolveBlock(key string) (*locset.Block, bool) {
	c.extend()
	if b, ok := c.resolve[key]; ok {
		return b, true
	}
	if c.ambig[key] {
		return nil, false
	}
	switch {
	case strings.HasPrefix(key, "gh:ghost#"):
		if idx, err := strconv.Atoi(key[len("gh:ghost#"):]); err == nil {
			c.tab.Ghost(idx, false)
		}
	case strings.HasPrefix(key, "gh:sghost#"):
		if idx, err := strconv.Atoi(key[len("gh:sghost#"):]); err == nil {
			c.tab.Ghost(idx, true)
		}
	case strings.HasPrefix(key, "h:"):
		parts := strings.SplitN(key, ":", 4)
		if len(parts) == 4 {
			site, ok := c.sitesByPos[parts[1]+":"+parts[2]]
			if ok && site >= 0 {
				s := c.prog.Info.AllocSites[site]
				c.tab.HeapBlock(site, c.prog.SiteTypes[site], fmt.Sprintf("%d:%d", s.AllocPos.Line, s.AllocPos.Col))
			}
		}
	case strings.HasPrefix(key, "s:"):
		if i, ok := c.strIndex[key]; ok {
			c.tab.StringBlock(i)
		}
	default:
		return nil, false
	}
	c.extend()
	b, ok := c.resolve[key]
	return b, ok
}

func (c *canonizer) encodeLoc(id locset.ID) (CanonLoc, bool) {
	ls := c.tab.Get(id)
	key, ok := c.encodeBlock(ls.Block)
	if !ok {
		return CanonLoc{}, false
	}
	return CanonLoc{Block: key, Offset: ls.Offset, Stride: ls.Stride, Pointer: ls.Pointer}, true
}

func (c *canonizer) resolveLoc(l CanonLoc) (locset.ID, bool) {
	c.extend()
	if id, ok := c.resolved[l]; ok && (!l.Pointer || c.tab.Get(id).Pointer) {
		return id, true
	}
	b, ok := c.resolveBlock(l.Block)
	if !ok {
		return 0, false
	}
	id := c.tab.Intern(b, l.Offset, l.Stride, l.Pointer)
	if c.resolved == nil {
		c.resolved = map[CanonLoc]locset.ID{}
	}
	c.resolved[l] = id
	return id, true
}

type renderedLoc struct {
	l CanonLoc
	s string // l.String()
}

// renderLoc is encodeLoc plus the CanonLoc.String rendering, memoized.
func (c *canonizer) renderLoc(id locset.ID) (*renderedLoc, bool) {
	c.extend()
	if r := c.rendered[id]; r != nil && r.l.Pointer == c.tab.Get(id).Pointer {
		return r, true
	}
	l, ok := c.encodeLoc(id)
	if !ok {
		return nil, false
	}
	if c.rendered == nil {
		c.rendered = map[locset.ID]*renderedLoc{}
	}
	r := &renderedLoc{l, l.String()}
	c.rendered[id] = r
	return r, true
}

// encodeGraph renders a points-to graph as its canonically sorted edge
// list.
func (c *canonizer) encodeGraph(g *ptgraph.Graph) ([]CanonEdge, bool) {
	rs, ok := c.renderGraph(g)
	if !ok || len(rs) == 0 {
		return nil, ok
	}
	edges := make([]CanonEdge, len(rs))
	for i, r := range rs {
		edges[i] = CanonEdge{Src: r.src.l, Dst: r.dst.l}
	}
	return edges, true
}

// renderedEdge is a canonical edge with both endpoints rendered.
type renderedEdge struct{ src, dst *renderedLoc }

// renderGraph encodes g's edges and sorts them by their rendered
// (Src, Dst) strings.
func (c *canonizer) renderGraph(g *ptgraph.Graph) ([]renderedEdge, bool) {
	rs := make([]renderedEdge, 0, g.Len())
	ok := true
	g.ForEach(func(src locset.ID, dsts ptgraph.Set) {
		if !ok {
			return
		}
		rsrc, sok := c.renderLoc(src)
		if !sok {
			ok = false
			return
		}
		for _, d := range dsts.IDs() {
			rdst, dok := c.renderLoc(d)
			if !dok {
				ok = false
				return
			}
			rs = append(rs, renderedEdge{rsrc, rdst})
		}
	})
	if !ok {
		return nil, false
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].src.s != rs[j].src.s {
			return rs[i].src.s < rs[j].src.s
		}
		return rs[i].dst.s < rs[j].dst.s
	})
	return rs, true
}

// resolveGraph rebuilds a graph from canonical edges in their sorted
// order, so any location sets interned along the way get deterministic
// IDs.
func (c *canonizer) resolveGraph(edges []CanonEdge) (*ptgraph.Graph, bool) {
	var b ptgraph.GraphBuilder
	var src locset.ID
	for i, e := range edges {
		// Edges come sorted by source: resolve each source once.
		if i == 0 || e.Src != edges[i-1].Src {
			var ok bool
			if src, ok = c.resolveLoc(e.Src); !ok {
				return nil, false
			}
		}
		dst, ok := c.resolveLoc(e.Dst)
		if !ok {
			return nil, false
		}
		b.Add(src, dst)
	}
	return b.Build(), true
}

// encodeGhosts renders a ghost-source map canonically, sorted by ghost
// pool name.
func (c *canonizer) encodeGhosts(ghostSrc map[*locset.Block][]*locset.Block) ([]CanonGhost, bool) {
	if len(ghostSrc) == 0 {
		return nil, true
	}
	out := make([]CanonGhost, 0, len(ghostSrc))
	for g, srcs := range ghostSrc {
		gk, ok := c.encodeBlock(g)
		if !ok {
			return nil, false
		}
		entry := CanonGhost{Ghost: gk}
		for _, s := range srcs {
			sk, ok := c.encodeBlock(s)
			if !ok {
				return nil, false
			}
			entry.Srcs = append(entry.Srcs, sk)
		}
		sort.Strings(entry.Srcs)
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ghost < out[j].Ghost })
	return out, true
}

func (c *canonizer) resolveGhosts(entries []CanonGhost) (map[*locset.Block][]*locset.Block, bool) {
	if len(entries) == 0 {
		return nil, true
	}
	out := make(map[*locset.Block][]*locset.Block, len(entries))
	for _, e := range entries {
		g, ok := c.resolveBlock(e.Ghost)
		if !ok || g.Kind != locset.KindGhost {
			return nil, false
		}
		srcs := make([]*locset.Block, 0, len(e.Srcs))
		for _, sk := range e.Srcs {
			s, ok := c.resolveBlock(sk)
			if !ok {
				return nil, false
			}
			srcs = append(srcs, s)
		}
		out[g] = srcs
	}
	return out, true
}

// ctxKey hashes a context's canonically rendered inputs into its
// table-independent identity.
func (c *canonizer) ctxKey(fn *ir.Func, Cp, Ip *ptgraph.Graph, ghostSrc map[*locset.Block][]*locset.Block) (string, bool) {
	cp, ok := c.renderGraph(Cp)
	if !ok {
		return "", false
	}
	ip, ok := c.renderGraph(Ip)
	if !ok {
		return "", false
	}
	ghosts, ok := c.encodeGhosts(ghostSrc)
	if !ok {
		return "", false
	}
	h := sha256.New()
	fmt.Fprintf(h, "fn\x00%s\x00C", fn.Name)
	var buf []byte
	writeEdges := func(rs []renderedEdge) {
		for _, e := range rs {
			buf = append(append(append(append(buf[:0], 0), e.src.s...), '>'), e.dst.s...)
			h.Write(buf)
		}
	}
	writeEdges(cp)
	h.Write([]byte("\x00I"))
	writeEdges(ip)
	h.Write([]byte("\x00G"))
	for _, g := range ghosts {
		fmt.Fprintf(h, "\x00%s=%s", g.Ghost, strings.Join(g.Srcs, ","))
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), true
}

// encodeInstr names an instruction structurally; the ref map is built on
// first use.
func (c *canonizer) encodeInstr(in *ir.Instr) (InstrRef, bool) {
	if c.instrRef == nil {
		n := 0
		for _, fn := range c.prog.Funcs {
			for _, node := range fn.AllNodes {
				n += len(node.Instrs)
			}
		}
		c.instrRef = make(map[*ir.Instr]InstrRef, n)
		for _, fn := range c.prog.Funcs {
			for ni, n := range fn.AllNodes {
				for ii, instr := range n.Instrs {
					c.instrRef[instr] = InstrRef{Fn: fn.Name, Node: ni, Idx: ii}
				}
			}
		}
	}
	ref, ok := c.instrRef[in]
	return ref, ok
}

func (c *canonizer) resolveInstr(ref InstrRef) (*ir.Instr, bool) {
	fn, ok := c.fnByName[ref.Fn]
	if !ok || ref.Node < 0 || ref.Node >= len(fn.AllNodes) {
		return nil, false
	}
	n := fn.AllNodes[ref.Node]
	if ref.Idx < 0 || ref.Idx >= len(n.Instrs) {
		return nil, false
	}
	return n.Instrs[ref.Idx], true
}

func (c *canonizer) resolveNode(fnName string, nodeID int) (*ir.Node, bool) {
	fn, ok := c.fnByName[fnName]
	if !ok || nodeID < 0 || nodeID >= len(fn.AllNodes) {
		return nil, false
	}
	return fn.AllNodes[nodeID], true
}

// BlockFootprints returns, per procedure name, the sorted canonical keys
// of the global, private-global and string-literal blocks referenced by
// the procedure's IR operands. The session folds a procedure's footprint
// into its dependency hash: it pins down which extern-owned blocks the
// procedure's lowered form names (and with which kind, type and literal
// occurrence), so an edit that re-identifies any of them — a type change,
// a `private` flip, a same-content literal shifting its occurrence index —
// changes the hash and invalidates exactly the procedures that can
// observe it. One canonizer serves every procedure, so each block's key
// is derived once.
func BlockFootprints(prog *ir.Program) map[string][]string {
	c := newCanonizer(prog)
	out := make(map[string][]string, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		out[fn.Name] = c.footprint(fn)
	}
	handoff.Lock()
	handoff.prog, handoff.c = prog, c
	handoff.Unlock()
	return out
}

// handoff passes the canonizer BlockFootprints built on to the analysis
// run of the same program, so a session update derives each block key
// once. It holds one canonizer at a time, and taking it removes it, so a
// canonizer never has two users.
var handoff struct {
	sync.Mutex
	prog *ir.Program
	c    *canonizer
}

// takeCanonizer returns the handed-off canonizer of prog, or nil.
func takeCanonizer(prog *ir.Program) *canonizer {
	handoff.Lock()
	defer handoff.Unlock()
	if handoff.prog != prog {
		return nil
	}
	c := handoff.c
	handoff.prog, handoff.c = nil, nil
	return c
}

func (c *canonizer) footprint(fn *ir.Func) []string {
	seen := map[string]bool{}
	addID := func(id locset.ID) {
		if id == ir.NoLoc || id == locset.UnkID {
			return
		}
		b := c.prog.Table.Get(id).Block
		switch b.Kind {
		case locset.KindGlobal, locset.KindPrivateGlobal, locset.KindString:
			if key, ok := c.encodeBlock(b); ok {
				seen[key] = true
			} else {
				seen["?ambiguous"] = true
			}
		}
	}
	for _, n := range fn.AllNodes {
		for _, in := range n.Instrs {
			addID(in.Dst)
			addID(in.Src)
			if in.Call != nil {
				addID(in.Call.FnLoc)
				addID(in.Call.Ret)
				for _, a := range in.Call.Args {
					addID(a)
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
