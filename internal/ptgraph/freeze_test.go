// Pin the immutable-snapshot contract a serving layer relies on: a graph
// frozen (or cloned) before publication can be cloned, read and formatted
// from many goroutines at once — Clone must not write the copy-on-write
// mark on an already-shared receiver, or every concurrent handler racing
// on one shared tier-0 graph (the exact hazard of the seqFast notes and
// FastAnswer.Graph) trips the race detector.

package ptgraph

import (
	"sync"
	"testing"

	"mtpa/internal/locset"
)

// buildTestGraph returns a small mutable graph over a fresh table.
func buildTestGraph(t *testing.T) (*Graph, *locset.Table) {
	t.Helper()
	tab := locset.NewTable()
	g := New()
	var ids []locset.ID
	for i := 0; i < 8; i++ {
		b := tab.Ghost(i, false)
		ids = append(ids, tab.Intern(b, 0, 0, true))
	}
	for i, src := range ids {
		for j := 0; j <= i; j++ {
			g.Add(src, ids[j])
		}
	}
	return g, tab
}

func TestFrozenGraphConcurrentCloneAndRead(t *testing.T) {
	g, tab := buildTestGraph(t)
	wantLen, wantHash := g.Len(), g.Hash()
	g.Freeze()

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				// Clone on a frozen receiver must be write-free.
				c := g.Clone()
				if c.Len() != wantLen || c.Hash() != wantHash {
					t.Errorf("clone diverged: len %d hash %#x, want %d %#x", c.Len(), c.Hash(), wantLen, wantHash)
					return
				}
				// CloneShared keeps working alongside.
				cs := g.CloneShared()
				if cs.Len() != wantLen {
					t.Errorf("CloneShared len %d, want %d", cs.Len(), wantLen)
					return
				}
				// Concurrent reads of the shared entry slice.
				_ = g.Sources()
				_ = g.Format(tab)
				g.ForEach(func(src locset.ID, dsts Set) {})
				// Mutating the clone copies the entry slice first and must not
				// disturb the frozen original or the other readers.
				if i%2 == 0 {
					c.Add(locset.UnkID, locset.UnkID)
				} else {
					c.KillSrc(locset.ID(3))
				}
				if g.Len() != wantLen || g.Hash() != wantHash {
					t.Errorf("frozen graph mutated: len %d hash %#x, want %d %#x", g.Len(), g.Hash(), wantLen, wantHash)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestFreezeIdempotentAndChainable(t *testing.T) {
	g, _ := buildTestGraph(t)
	if got := g.Freeze().Freeze(); got != g {
		t.Fatalf("Freeze did not return the receiver")
	}
	c := g.Clone()
	c.Add(locset.UnkID, locset.UnkID)
	if c.Len() != g.Len()+1 {
		t.Fatalf("clone of frozen graph not independently mutable")
	}
}
