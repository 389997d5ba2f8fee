package seq

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func mkPair(i int) Pair {
	g := uint64(i)*2 + 1
	return Pair{
		SourceNode:   1,
		OrderingNode: 2,
		Local:        Range{Min: g, Max: g + 1},
		Global:       Range{Min: g, Max: g + 1},
	}
}

// TestPairListBoundaries drives append/insert/dropPrefix across chunk
// boundaries against a plain slice model under single ownership.
func TestPairListBoundaries(t *testing.T) {
	var l pairList
	var model []Pair
	verify := func(ctx string) {
		t.Helper()
		if err := l.check(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if l.len() != len(model) {
			t.Fatalf("%s: len %d, model %d", ctx, l.len(), len(model))
		}
		for i := range model {
			if l.at(i) != model[i] {
				t.Fatalf("%s: at(%d) = %v, model %v", ctx, i, l.at(i), model[i])
			}
		}
	}

	// Fill exactly three chunks plus one pair.
	for i := 0; i < 3*chunkCap+1; i++ {
		l.append(mkPair(i))
		model = append(model, mkPair(i))
		if i+1 == chunkCap || i+1 == chunkCap+1 || i+1 == 3*chunkCap {
			verify(fmt.Sprintf("append %d", i))
		}
	}
	verify("filled")

	// Drop a prefix ending exactly on a chunk boundary, then mid-chunk.
	l.dropPrefix(chunkCap)
	model = model[chunkCap:]
	verify("drop chunk boundary")
	l.dropPrefix(5)
	model = model[5:]
	verify("drop mid-chunk")

	// Interior insert rebuilds the suffix (detached runs out of order).
	ins := Pair{SourceNode: 9, OrderingNode: 9, Local: Range{Min: 9000, Max: 9000}, Global: Range{Min: 9000, Max: 9000}}
	l.insert(3, ins)
	model = append(model[:3], append([]Pair{ins}, model[3:]...)...)
	verify("interior insert")

	// Insert at the very front and the very end.
	front := Pair{SourceNode: 8, OrderingNode: 8, Local: Range{Min: 8000, Max: 8000}, Global: Range{Min: 8000, Max: 8000}}
	l.insert(0, front)
	model = append([]Pair{front}, model...)
	verify("front insert")
	end := mkPair(7000)
	l.insert(l.len(), end)
	model = append(model, end)
	verify("end insert")

	// Drop everything.
	l.dropPrefix(l.len())
	model = nil
	verify("drop all")
	l.append(mkPair(1))
	model = append(model, mkPair(1))
	verify("append after reset")
}

// TestCloneIsolationAcrossChunkBoundary pins the chunk-granular CoW: a
// clone taken with a partially filled tail chunk must not observe the
// parent's subsequent appends into that chunk, and vice versa, including
// when the appends cross into fresh chunks and when either side compacts.
func TestCloneIsolationAcrossChunkBoundary(t *testing.T) {
	for _, fill := range []int{1, chunkCap - 1, chunkCap, chunkCap + 1, 2*chunkCap - 1} {
		w := NewWTSNP()
		next := map[NodeID]uint64{}
		g := uint64(1)
		add := func(tbl *WTSNP, src NodeID) {
			lo := next[src] + 1
			p := Pair{SourceNode: src, OrderingNode: 7,
				Local: Range{Min: lo, Max: lo}, Global: Range{Min: g, Max: g}}
			if err := tbl.Append(p); err != nil {
				t.Fatalf("fill=%d: Append: %v", fill, err)
			}
			next[src] = lo
			g++
		}
		for i := 0; i < fill; i++ {
			add(w, NodeID(i%3+1))
		}
		snapshot := w.Entries()

		c := w.Clone()
		// Parent appends across the shared tail chunk and beyond.
		for i := 0; i < chunkCap+3; i++ {
			add(w, 1)
		}
		// Clone compacts, then the parent compacts too.
		c.Compact(GlobalSeq(fill / 2))
		w.Compact(GlobalSeq(fill / 3))

		got := c.Entries()
		want := 0
		for _, p := range snapshot {
			if GlobalSeq(p.Global.Max) > GlobalSeq(fill/2) {
				if got[want] != p {
					t.Fatalf("fill=%d: clone entry %d = %v, want %v", fill, want, got[want], p)
				}
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("fill=%d: clone has %d entries, want %d", fill, len(got), want)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("fill=%d: clone: %v", fill, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("fill=%d: parent: %v", fill, err)
		}
	}
}

// TestPairListSpineBounded: a list that is appended to and compacted
// forever — the cumulative table's life — keeps a spine array
// proportional to its live chunks. A prefix drop only steps over the
// dropped chunk pointers, so the array must be re-copied once those dead
// slots outnumber the live ones.
func TestPairListSpineBounded(t *testing.T) {
	var l pairList
	i := 0
	for ; i < 3*chunkCap+5; i++ {
		l.append(mkPair(i))
	}
	for cycle := 0; cycle < 5000; cycle++ {
		for k := 0; k < 40; k++ {
			l.append(mkPair(i))
			i++
		}
		l.dropPrefix(40)
		if err := l.check(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if array := int(l.dead) + cap(l.spine); array > 3*len(l.spine)+4 {
			t.Fatalf("cycle %d: spine array holds %d pointers (%d dead) for %d live chunks",
				cycle, array, l.dead, len(l.spine))
		}
	}
	if l.len() != 3*chunkCap+5 || l.at(0) != mkPair(i-l.len()) {
		t.Fatalf("list lost track of its pairs: len %d, first %v", l.len(), l.at(0))
	}
}

// TestPairListDropFreesChunks: chunks a prefix drop removed must become
// garbage once no clone holds them, not stay pinned by the spine's
// backing array until its next reallocation.
func TestPairListDropFreesChunks(t *testing.T) {
	const total, drop = 64, 48
	var l pairList
	for i := 0; i < total*chunkCap; i++ {
		l.append(mkPair(i))
	}
	var freed atomic.Int32
	for _, c := range l.spine[:drop] {
		runtime.SetFinalizer(c, func(*chunk) { freed.Add(1) })
	}
	l.dropPrefix(drop * chunkCap)
	for try := 0; try < 50 && freed.Load() < drop; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := freed.Load(); n < drop {
		t.Fatalf("%d of %d dropped chunks freed", n, drop)
	}
	if l.len() != (total-drop)*chunkCap || l.at(0) != mkPair(drop*chunkCap) {
		t.Fatalf("surviving pairs disturbed: len %d, first %v", l.len(), l.at(0))
	}
	runtime.KeepAlive(&l)
}
