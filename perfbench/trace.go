package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer. Parent is the index of the
// enclosing span (-1 for an op's root span); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing, so the measured code paths
// differ only by a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerOf maps a span name to the repository layer it measures: the
// name's prefix, except that the artifact store belongs to the session
// layer, root "op" spans to the benchmark's own generator, and
// Session.RunStaged to core: it is the seeded fixpoint plus a summary
// harvest, and without spans inside the program the two cannot be told
// apart.
func layerOf(name string) string {
	if name == "session.run" {
		return "core"
	}
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "store":
		return "session"
	case "op":
		return "bench"
	}
	return prefix
}

// spanTotals aggregates the spans of one name: calls, inclusive and
// self time, and the self time's share of all ops' time.
type spanTotals struct {
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	WallMs float64 `json:"wall_ms"`
	Share  float64 `json:"share_of_ops"`
}

// summarize computes, per span name, the call count, the inclusive wall
// time and the self time: a span's duration minus the part of it that
// its child spans cover. Children may overlap (store probes from the
// engine's worker pool), so coverage is the union of their intervals.
func (t *tracer) summarize() (byName map[string]spanTotals, opMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName = map[string]spanTotals{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		wall := s.End - s.Start
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.End < 0 {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := wall - covered(iv)
		tot := byName[s.Name]
		tot.Count++
		tot.WallMs += float64(wall) / 1e6
		tot.SelfMs += float64(self) / 1e6
		byName[s.Name] = tot
		if s.Parent < 0 {
			opMs += float64(wall) / 1e6
		}
	}
	for name, tot := range byName {
		tot.Share = ratio(tot.SelfMs, opMs)
		byName[name] = tot
	}
	return byName, opMs
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every span as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
