package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mtpa"
	"mtpa/internal/bench"
	"mtpa/internal/lexer"
	"mtpa/internal/parser"
	"mtpa/internal/race"
	"mtpa/internal/token"
)

// corpusProgram is one corpus entry with its committed golden row.
type corpusProgram struct {
	name, file, src string
	golden          goldenRow
}

// goldenRow is the Multithreaded row of a golden file. FastPath is -1
// where the file has no fast-path column (the paper partition).
type goldenRow struct {
	FastPath                                           int
	CEdges, EEdges, Contexts, Rounds, FIEdges, FIIters int
}

// partitions lists the corpus partitions with the golden files that pin
// them, relative to the repository root.
var partitions = []struct {
	golden string
	load   func() ([]bench.Program, error)
}{
	{"internal/bench/testdata/golden_corpus.tsv", bench.Programs},
	{"internal/bench/testdata/golden_seq.tsv", bench.SeqPrograms},
	{"internal/bench/testdata/golden_unstr.tsv", bench.UnstrPrograms},
}

// loadCorpus returns all 33 programs of the three partitions, each with
// its golden row read from the committed files under root.
func loadCorpus(root string) ([]corpusProgram, error) {
	var out []corpusProgram
	for _, part := range partitions {
		rows, err := readGolden(filepath.Join(root, part.golden))
		if err != nil {
			return nil, err
		}
		progs, err := part.load()
		if err != nil {
			return nil, err
		}
		for _, p := range progs {
			row, ok := rows[p.Name]
			if !ok {
				return nil, fmt.Errorf("%s: no Multithreaded row for %s", part.golden, p.Name)
			}
			out = append(out, corpusProgram{name: p.Name, file: p.Name + ".clk", src: p.Source, golden: row})
		}
	}
	return out, nil
}

// readGolden parses the Multithreaded rows of one golden file. The
// paper partition has 8 columns, the others a fast-path flag as well.
func readGolden(path string) (map[string]goldenRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := map[string]goldenRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 8 && len(fs) != 9 {
			return nil, fmt.Errorf("%s: bad row %q", path, line)
		}
		if fs[1] != mtpa.Multithreaded.String() {
			continue
		}
		nums := make([]int, len(fs)-2)
		for i, s := range fs[2:] {
			n, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("%s: bad row %q: %w", path, line, err)
			}
			nums[i] = n
		}
		r := goldenRow{FastPath: -1}
		if len(nums) == 7 {
			r.FastPath, nums = nums[0], nums[1:]
		}
		r.CEdges, r.EEdges, r.Contexts, r.Rounds, r.FIEdges, r.FIIters = nums[0], nums[1], nums[2], nums[3], nums[4], nums[5]
		rows[fs[0]] = r
	}
	return rows, sc.Err()
}

// editChain is a seeded stream of edits of one program. Step 0 is the
// unedited source; step k adds one in-place no-op statement (such as
// " 0;") right after the opening brace of the k-th procedure of a seeded
// permutation, so consecutive steps differ in exactly one procedure and
// no token moves to another line. Every procedure is edited once: leaf
// edits, which invalidate the summaries of every caller, mix with edits
// near the root, and the seed changes their order but not their set, so
// that runs with different seeds do the same amount of work.
type editChain struct {
	name, file string
	steps      []string
}

func makeChain(name, src, stmt string, rng *rand.Rand) (editChain, error) {
	file := name + ".clk"
	lx := lexer.New(file, src)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return editChain{}, fmt.Errorf("%s: lex errors", file)
	}
	segs, ok := parser.SegmentTokens(toks)
	if !ok {
		return editChain{}, fmt.Errorf("%s: cannot segment", file)
	}
	var braces []int // byte offset just past each procedure's opening brace
	for _, seg := range segs {
		if seg.Kind != parser.SegProc {
			continue
		}
		for _, tk := range seg.Toks {
			if tk.Kind == token.LBRACE {
				braces = append(braces, offsetOf(src, tk.Pos)+1)
				break
			}
		}
	}
	if len(braces) == 0 {
		return editChain{}, fmt.Errorf("%s: no procedure", file)
	}
	c := editChain{name: name, file: file, steps: []string{src}}
	edited := make([]bool, len(braces))
	for _, p := range rng.Perm(len(braces)) {
		edited[p] = true
		var b strings.Builder
		prev := 0
		for i, off := range braces {
			b.WriteString(src[prev:off])
			if edited[i] {
				b.WriteString(stmt)
			}
			prev = off
		}
		b.WriteString(src[prev:])
		c.steps = append(c.steps, b.String())
	}
	return c, nil
}

// interleave orders the steps first.. of every chain for one round so
// that the chains advance in proportion to their length: any prefix of
// the round, such as the part a run's deadline cuts off, holds about the
// same share of every chain. rng breaks ties.
func interleave(chains []editChain, first int, rng *rand.Rand) []cycle {
	type keyed struct {
		c    cycle
		key  float64
		rank int
	}
	rank := rng.Perm(len(chains))
	var ks []keyed
	for ch, c := range chains {
		n := len(c.steps) - first
		for s := first; s < len(c.steps); s++ {
			ks = append(ks, keyed{cycle{ch, s}, (float64(s-first) + 0.5) / float64(n), rank[ch]})
		}
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].key != ks[b].key {
			return ks[a].key < ks[b].key
		}
		return ks[a].rank < ks[b].rank
	})
	out := make([]cycle, len(ks))
	for i, k := range ks {
		out[i] = k.c
	}
	return out
}

// cycle names one step of one chain.
type cycle struct{ chain, step int }

// offsetOf converts a 1-based line/column position to a byte offset.
func offsetOf(src string, pos token.Pos) int {
	off := 0
	for line := 1; line < pos.Line; line++ {
		nl := strings.IndexByte(src[off:], '\n')
		if nl < 0 {
			return len(src)
		}
		off += nl + 1
	}
	return off + pos.Col - 1
}

// paperChains builds one edit chain per paper program, inserting stmt.
func paperChains(stmt string, rng *rand.Rand) ([]editChain, error) {
	progs, err := bench.Programs()
	if err != nil {
		return nil, err
	}
	var out []editChain
	for _, p := range progs {
		c, err := makeChain(p.Name, p.Source, stmt, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// reference is what a cold one-shot run says about one source: the
// answers every warm or served result for the same source must repeat.
type reference struct {
	fingerprint string
	races       int
	fiIters     int
	tier0       string // the tier-0 graph's edges, as edgeSet renders them
}

// coldReference compiles and analyses src from scratch with the default
// options, as mtpa.Compile + Analyze + race detection + the tier-0 pass.
func coldReference(file, src string) (reference, error) {
	prog, err := mtpa.Compile(file, src)
	if err != nil {
		return reference{}, err
	}
	res, err := prog.Analyze(mtpa.Options{Mode: mtpa.Multithreaded})
	if err != nil {
		return reference{}, err
	}
	fi := prog.FlowInsensitive()
	return reference{
		fingerprint: res.Fingerprint(),
		races:       len(race.New(prog.IR, res).Detect()),
		fiIters:     fi.Iterations,
		tier0:       edgeSet(fi.Graph.FormatFiltered(prog.Table(), prog.TempFilter())),
	}, nil
}

// edgeSet renders a formatted graph ("{a->b, c->d}") with its edges
// sorted. The formatted order follows location-set ids, which depend on
// the order a run interned them in; the edges themselves do not.
func edgeSet(graph string) string {
	edges := strings.Split(strings.TrimSuffix(strings.TrimPrefix(graph, "{"), "}"), ", ")
	sort.Strings(edges)
	return strings.Join(edges, ", ")
}

// refKey indexes references by file and source.
func refKey(file, src string) string { return file + "\x00" + src }

// addReferences computes the cold reference of steps first.. of every
// chain into refs.
func addReferences(refs map[string]reference, chains []editChain, first int) error {
	for _, c := range chains {
		for _, src := range c.steps[first:] {
			r, err := coldReference(c.file, src)
			if err != nil {
				return err
			}
			refs[refKey(c.file, src)] = r
		}
	}
	return nil
}
