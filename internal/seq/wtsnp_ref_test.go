package seq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refWTSNP is a deliberately naive reference implementation of the WTSNP
// semantics — unsorted entry list, linear scans everywhere — kept as the
// oracle for differential testing of the indexed, copy-on-write
// implementation. Any divergence between the two is a bug in the fast
// path (or a semantic change that must be made deliberately in both).
type refWTSNP struct {
	entries  []Pair
	maxLocal map[NodeID]LocalSeq
	absorbed GlobalSeq
}

func newRef() *refWTSNP { return &refWTSNP{maxLocal: make(map[NodeID]LocalSeq)} }

func (w *refWTSNP) clone() *refWTSNP {
	c := newRef()
	c.entries = append([]Pair(nil), w.entries...)
	for k, v := range w.maxLocal {
		c.maxLocal[k] = v
	}
	c.absorbed = w.absorbed
	return c
}

func (w *refWTSNP) overlaps(p Pair) bool {
	for _, e := range w.entries {
		if e.Global.Overlaps(p.Global) {
			return true
		}
		if e.SourceNode == p.SourceNode && e.Local.Overlaps(p.Local) {
			return true
		}
	}
	return false
}

func (w *refWTSNP) record(p Pair) {
	w.entries = append(w.entries, p)
	if hw := w.maxLocal[p.SourceNode]; LocalSeq(p.Local.Max) > hw {
		w.maxLocal[p.SourceNode] = LocalSeq(p.Local.Max)
	}
	if g := GlobalSeq(p.Global.Max); g > w.absorbed {
		w.absorbed = g
	}
}

func (w *refWTSNP) appendPair(p Pair) error {
	if !p.Valid() || w.overlaps(p) {
		return fmt.Errorf("ref: invalid or overlapping")
	}
	if hw := w.maxLocal[p.SourceNode]; uint64(hw)+1 != p.Local.Min {
		return fmt.Errorf("ref: not contiguous with high-water %d", hw)
	}
	w.record(p)
	return nil
}

func (w *refWTSNP) insertPair(p Pair) error {
	if !p.Valid() || w.overlaps(p) {
		return fmt.Errorf("ref: invalid or overlapping")
	}
	w.record(p)
	return nil
}

func (w *refWTSNP) globalFor(src NodeID, l LocalSeq) (GlobalSeq, NodeID, bool) {
	for _, e := range w.entries {
		if e.SourceNode != src {
			continue
		}
		if g, ok := e.GlobalFor(l); ok {
			return g, e.OrderingNode, true
		}
	}
	return 0, None, false
}

func (w *refWTSNP) absorb(other *refWTSNP) int {
	added := 0
	for _, p := range other.entries {
		if !p.Valid() || GlobalSeq(p.Global.Min) <= w.absorbed {
			continue
		}
		if _, _, known := w.globalFor(p.SourceNode, LocalSeq(p.Local.Min)); known {
			continue
		}
		if w.overlaps(p) {
			continue
		}
		w.record(p)
		added++
	}
	return added
}

// compact drops the entries at or below horizon and returns how many it
// dropped and, per source, the highest local among them.
func (w *refWTSNP) compact(horizon GlobalSeq) (int, map[NodeID]LocalSeq) {
	kept := w.entries[:0]
	removed := 0
	maxDropped := map[NodeID]LocalSeq{}
	for _, e := range w.entries {
		if GlobalSeq(e.Global.Max) <= horizon {
			removed++
			if l := LocalSeq(e.Local.Max); l > maxDropped[e.SourceNode] {
				maxDropped[e.SourceNode] = l
			}
			continue
		}
		kept = append(kept, e)
	}
	w.entries = kept
	return removed, maxDropped
}

// horizonForSize mirrors WTSNP.HorizonForSize on the unsorted reference:
// the Global.Max of the (len-max)th entry in global order.
func (w *refWTSNP) horizonForSize(max int) GlobalSeq {
	if max < 0 || len(w.entries) <= max {
		return 0
	}
	maxes := make([]uint64, 0, len(w.entries))
	for _, e := range w.entries {
		maxes = append(maxes, e.Global.Max)
	}
	sort.Slice(maxes, func(i, j int) bool { return maxes[i] < maxes[j] })
	return GlobalSeq(maxes[len(maxes)-max-1])
}

// pairUnderTest keeps a fast table and its naive reference in lockstep,
// together with the bookkeeping needed to generate valid appends against
// this table's own history (clones diverge, so each has its own).
type pairUnderTest struct {
	fast       *WTSNP
	ref        *refWTSNP
	nextGlobal uint64
	nextLocal  map[NodeID]uint64
}

func newPairUnderTest() *pairUnderTest {
	return &pairUnderTest{fast: NewWTSNP(), ref: newRef(), nextGlobal: 1, nextLocal: map[NodeID]uint64{}}
}

// clonePair snapshots both sides; the fast side shares chunk storage
// copy-on-write with its parent, which is exactly what the fuzz attacks.
func (u *pairUnderTest) clonePair() *pairUnderTest {
	nl := make(map[NodeID]uint64, len(u.nextLocal))
	for k, v := range u.nextLocal {
		nl[k] = v
	}
	return &pairUnderTest{fast: u.fast.Clone(), ref: u.ref.clone(), nextGlobal: u.nextGlobal, nextLocal: nl}
}

func (u *pairUnderTest) check(t *testing.T, step int) {
	t.Helper()
	if err := u.fast.Validate(); err != nil {
		t.Fatalf("step %d: Validate: %v", step, err)
	}
	// The incrementally maintained wire size must track every mutation —
	// including ones made through a clone that shares this table's chunks
	// — and the encoding must decode back to the same table.
	checkWire(t, u.fast)
	if u.fast.Len() != len(u.ref.entries) {
		t.Fatalf("step %d: Len %d, ref %d\nfast: %v", step, u.fast.Len(), len(u.ref.entries), u.fast)
	}
	for src, hw := range u.ref.maxLocal {
		if got := u.fast.MaxAssignedLocal(src); got != hw {
			t.Fatalf("step %d: MaxAssignedLocal(%v) = %d, ref %d", step, src, got, hw)
		}
	}
	// Every assigned local must resolve identically (probe every entry's
	// endpoints plus a miss on either side).
	for _, e := range u.ref.entries {
		for _, l := range []LocalSeq{LocalSeq(e.Local.Min), LocalSeq(e.Local.Max)} {
			wantG, wantOrd, _ := u.ref.globalFor(e.SourceNode, l)
			g, ord, ok := u.fast.GlobalFor(e.SourceNode, l)
			if !ok || g != wantG || ord != wantOrd {
				t.Fatalf("step %d: GlobalFor(%v,%d) = (%d,%v,%v), ref (%d,%v)",
					step, e.SourceNode, l, g, ord, ok, wantG, wantOrd)
			}
		}
	}
	// The materialized entries must be the reference set in global order,
	// and ForEachEntry must agree with Entries.
	want := append([]Pair(nil), u.ref.entries...)
	sort.Slice(want, func(i, j int) bool { return want[i].Global.Min < want[j].Global.Min })
	got := u.fast.Entries()
	if len(got) != len(want) {
		t.Fatalf("step %d: Entries len %d, ref %d", step, len(got), len(want))
	}
	i := 0
	u.fast.ForEachEntry(func(p Pair) {
		if got[i] != want[i] || p != want[i] {
			t.Fatalf("step %d: entry %d = %v (iter %v), ref %v", step, i, got[i], p, want[i])
		}
		i++
	})
}

// chooser supplies the random decisions of a differential run: a seeded
// RNG for TestDifferentialWTSNP, fuzz bytes for FuzzWTSNP.
type chooser interface {
	intn(n int) int
}

type rngChooser struct{ *rand.Rand }

func (c rngChooser) intn(n int) int { return c.Intn(n) }

// byteChooser answers from fuzz bytes, then zeros once they run out.
type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// compactBoth compacts both sides of u at h and requires the same entries
// removed and the same per-source highest dropped locals reported.
func compactBoth(t *testing.T, step int, u *pairUnderTest, h GlobalSeq) {
	t.Helper()
	got := map[NodeID]LocalSeq{}
	remFast := u.fast.CompactFunc(h, func(src NodeID, l LocalSeq) {
		if _, dup := got[src]; dup {
			t.Fatalf("step %d: Compact(%d) reported source %v twice", step, h, src)
		}
		got[src] = l
	})
	remRef, want := u.ref.compact(h)
	if remFast != remRef {
		t.Fatalf("step %d: Compact(%d) removed %d, ref %d", step, h, remFast, remRef)
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: Compact(%d) reported %v, ref %v", step, h, got, want)
	}
	for src, l := range want {
		if got[src] != l {
			t.Fatalf("step %d: Compact(%d) reported %v, ref %v", step, h, got, want)
		}
	}
}

// differentialStep applies one random operation to a random member of
// the pool, on the fast table and its reference alike. It returns the
// (possibly grown) pool and the member it operated on.
func differentialStep(t *testing.T, pool []*pairUnderTest, c chooser, step int) ([]*pairUnderTest, *pairUnderTest) {
	t.Helper()
	u := pool[c.intn(len(pool))]
	switch op := c.intn(13); {
	case op < 4: // Append a contiguous run for a random source
		src := NodeID(c.intn(5) + 1)
		n := uint64(c.intn(4) + 1)
		lo := u.nextLocal[src] + 1
		p := Pair{
			SourceNode:   src,
			OrderingNode: NodeID(c.intn(3) + 10),
			Local:        Range{Min: lo, Max: lo + n - 1},
			Global:       Range{Min: u.nextGlobal, Max: u.nextGlobal + n - 1},
		}
		errFast := u.fast.Append(p)
		errRef := u.ref.appendPair(p)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("step %d: Append(%v) fast err %v, ref err %v", step, p, errFast, errRef)
		}
		if errFast == nil {
			u.nextGlobal += n
			u.nextLocal[src] = p.Local.Max
		}
	case op < 5: // Insert a detached (post-compaction style) run
		src := NodeID(c.intn(5) + 1)
		n := uint64(c.intn(3) + 1)
		lo := u.nextLocal[src] + 1 + uint64(c.intn(3)) // may skip locals
		p := Pair{
			SourceNode:   src,
			OrderingNode: NodeID(c.intn(3) + 10),
			Local:        Range{Min: lo, Max: lo + n - 1},
			Global:       Range{Min: u.nextGlobal, Max: u.nextGlobal + n - 1},
		}
		errFast := u.fast.Insert(p)
		errRef := u.ref.insertPair(p)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("step %d: Insert(%v) fast err %v, ref err %v", step, p, errFast, errRef)
		}
		if errFast == nil {
			u.nextGlobal += n
			u.nextLocal[src] = p.Local.Max
		}
	case op < 6: // Insert below a source's high-water: its local order
		// then disagrees with the global order, which forces Compact's
		// non-prefix fallback. Most attempts overlap and must be
		// rejected identically; the ones that land fill a skipped gap.
		src := NodeID(c.intn(5) + 1)
		lo := uint64(c.intn(int(u.nextLocal[src])+1) + 1)
		n := uint64(c.intn(2) + 1)
		p := Pair{
			SourceNode:   src,
			OrderingNode: NodeID(c.intn(3) + 10),
			Local:        Range{Min: lo, Max: lo + n - 1},
			Global:       Range{Min: u.nextGlobal, Max: u.nextGlobal + n - 1},
		}
		errFast := u.fast.Insert(p)
		errRef := u.ref.insertPair(p)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("step %d: out-of-order Insert(%v) fast err %v, ref err %v", step, p, errFast, errRef)
		}
		if errFast == nil {
			u.nextGlobal += n
			u.nextLocal[src] = max(u.nextLocal[src], p.Local.Max)
		}
	case op < 7: // Compact at a random horizon
		compactBoth(t, step, u, GlobalSeq(c.intn(int(u.nextGlobal)+1)))
	case op < 8: // Compact to a size cap (the token wire-size bound)
		max := c.intn(u.fast.Len() + 2)
		hFast := u.fast.HorizonForSize(max)
		if hRef := u.ref.horizonForSize(max); hFast != hRef {
			t.Fatalf("step %d: HorizonForSize(%d) = %d, ref %d", step, max, hFast, hRef)
		}
		compactBoth(t, step, u, hFast)
	case op < 10: // Clone (of any member, to any depth)
		cl := u.clonePair()
		if len(pool) < 8 {
			pool = append(pool, cl)
		} else {
			pool[c.intn(len(pool))] = cl
		}
	case op < 11: // Absorb another member's table into this one
		o := pool[c.intn(len(pool))]
		if o == u {
			break
		}
		addFast, _ := u.fast.Absorb(o.fast)
		addRef := u.ref.absorb(o.ref)
		if addFast != addRef {
			t.Fatalf("step %d: Absorb added %d, ref %d", step, addFast, addRef)
		}
		// Future appends on u must clear everything absorbed.
		if o.nextGlobal > u.nextGlobal {
			u.nextGlobal = o.nextGlobal
		}
		for src, hw := range o.nextLocal {
			if hw > u.nextLocal[src] {
				u.nextLocal[src] = hw
			}
		}
	default: // Random GlobalFor probes, hit or miss
		src := NodeID(c.intn(6) + 1)
		l := LocalSeq(c.intn(int(u.nextLocal[src]) + 3))
		gF, oF, okF := u.fast.GlobalFor(src, l)
		gR, oR, okR := u.ref.globalFor(src, l)
		if gF != gR || oF != oR || okF != okR {
			t.Fatalf("step %d: GlobalFor(%v,%d) = (%d,%v,%v), ref (%d,%v,%v)",
				step, src, l, gF, oF, okF, gR, oR, okR)
		}
	}
	return pool, u
}

// TestDifferentialWTSNP fuzzes random Append/Insert/Absorb/Compact/
// GlobalFor/Clone sequences against the naive reference and requires
// identical observable behavior after every step.
//
// Unlike a snapshot-only fuzz, every member of the clone pool is a live
// table: clones of clones are taken at arbitrary depths, every member is
// mutated (appends, detached and out-of-order inserts, compaction at
// both random and size-capped horizons), and absorbs run in both
// directions between randomly chosen members. With the chunked entry
// store this attacks exactly the dangerous surface: chunks and spines
// shared across many generations of diverging tables, interleaved with
// prefix-dropping compaction and suffix-rebuilding interior inserts.
// After every step, every pool member is revalidated against its own
// reference.
func TestDifferentialWTSNP(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := rngChooser{rand.New(rand.NewSource(seed))}
			pool := []*pairUnderTest{newPairUnderTest()}
			for step := 0; step < 400; step++ {
				var u *pairUnderTest
				pool, u = differentialStep(t, pool, c, step)
				// A mutation through shared chunks must never perturb
				// any other pool member: revalidate everyone.
				for _, m := range pool {
					m.check(t, step)
				}
				checkInsertPaths(t, u.fast)
			}
		})
	}
}

// FuzzWTSNP drives TestDifferentialWTSNP's operations from fuzz bytes:
// each step reads its choices — member, operation, source, run length,
// horizon — one byte at a time. To keep an execution cheap enough for the
// fuzzer to explore (and minimize), each step checks only the member it
// mutated; every member is checked once at the end, where a perturbation
// through shared chunks still shows.
func FuzzWTSNP(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 0, 0, 1, 1, 0, 0, 5, 3, 0, 0, 6, 0})
	f.Add([]byte{0, 1, 2, 3, 0, 0, 5, 2, 0, 1, 0, 0, 0, 0, 7, 2, 0, 8, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			// Longer inputs only repeat the same operations, and the
			// fuzzer's minimizer is quadratic in the input length.
			return
		}
		c := &byteChooser{b: data}
		pool := []*pairUnderTest{newPairUnderTest()}
		step := 0
		for ; len(c.b) > 0; step++ {
			var u *pairUnderTest
			pool, u = differentialStep(t, pool, c, step)
			u.check(t, step)
		}
		for _, m := range pool {
			m.check(t, step)
			checkInsertPaths(t, m.fast)
		}
	})
}
