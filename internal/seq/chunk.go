package seq

// This file implements the WTSNP's entry storage: an immutable-chunked,
// structurally shared sequence of Pairs. Entries live in fixed-size
// chunks referenced from a small pointer spine. Clones share both spine
// and chunks; a mutation copies only the spine (count/32 pointers) and
// the tail chunk it writes into, so a token hop costs O(1) chunks of
// bytes instead of reallocating the whole entry array. Full interior
// chunks are never written again once created, which is what makes
// sharing them between arbitrarily many clones safe.

const (
	chunkShift = 5
	chunkCap   = 1 << chunkShift // 32 pairs ≈ 1.5 KB per chunk
	chunkMask  = chunkCap - 1
)

// chunk is one fixed-size block of pairs. A chunk reachable from more
// than one pairList is immutable; only a list that exclusively owns its
// tail chunk appends into it in place.
type chunk [chunkCap]Pair

// pairList is a chunked sequence of Pairs with copy-on-write structural
// sharing. The zero value is an empty list.
//
// Logical index i lives at flat position head+i: chunk (head+i)>>chunkShift,
// slot (head+i)&chunkMask. head is non-zero after a prefix drop
// (compaction), which shares the surviving chunks instead of copying.
//
// priv marks the spine array and the tail chunk as exclusively owned:
// set when a mutation copies them, cleared by WTSNP.fork when the
// enclosing table is cloned. Appends on a priv list write in place;
// appends on a shared list first copy the spine and the tail chunk.
//
// dead counts the spine slots a prefix drop stepped over: they still sit
// in the backing array before spine[0], where the GC sees them, so the
// chunks they point to stay alive until the spine is copied.
type pairList struct {
	spine []*chunk
	head  int32 // index of the first live pair within spine[0]
	count int32 // number of live pairs
	dead  int32 // dropped chunk pointers before spine[0] in the backing array
	priv  bool  // spine array and tail chunk exclusively owned
}

// len returns the number of live pairs.
func (l *pairList) len() int { return int(l.count) }

// at returns the pair at logical index i.
func (l *pairList) at(i int) Pair {
	p := int(l.head) + i
	return l.spine[p>>chunkShift][p&chunkMask]
}

// append adds p after the last pair, copying the spine and the tail
// chunk first if they may be shared with a clone.
func (l *pairList) append(p Pair) {
	pos := int(l.head) + int(l.count)
	ci := pos >> chunkShift
	if !l.priv {
		spine := make([]*chunk, len(l.spine), len(l.spine)+1)
		copy(spine, l.spine)
		l.spine, l.dead = spine, 0
		if ci < len(l.spine) {
			c := *l.spine[ci]
			l.spine[ci] = &c
		}
		l.priv = true
	}
	if ci == len(l.spine) {
		if len(l.spine) == cap(l.spine) {
			l.dead = 0 // append moves the live spine to a new array
		}
		l.spine = append(l.spine, &chunk{})
	}
	l.spine[ci][pos&chunkMask] = p
	l.count++
}

// truncate cuts the list to its first k pairs. If the cut exposes an
// interior chunk as the new tail, ownership of it is unknown, so priv is
// dropped and the next append re-copies.
func (l *pairList) truncate(k int) {
	end := int(l.head) + k
	nc := (end + chunkMask) >> chunkShift
	if nc < len(l.spine) {
		l.spine = l.spine[:nc]
		l.priv = false
	}
	l.count = int32(k)
}

// insert places p at logical index i. Inserting at the end (the ordering
// hot path: global ranges only grow) is an append; interior insertion
// (absorbing out-of-order entries, decoding) rebuilds the suffix.
func (l *pairList) insert(i int, p Pair) {
	n := int(l.count)
	if i == n {
		l.append(p)
		return
	}
	tail := make([]Pair, 0, n-i)
	for j := i; j < n; j++ {
		tail = append(tail, l.at(j))
	}
	l.truncate(i)
	l.append(p)
	for _, q := range tail {
		l.append(q)
	}
}

// dropPrefix removes the first k pairs by advancing past whole chunks
// and bumping head, sharing the surviving chunks with any clones. Once
// the dead prefix of the spine's array is as long as the live spine, the
// live part is copied to a fresh array so the dropped chunks can be
// freed; each copy moves no more pointers than were dropped since the
// last one, so this is amortised O(1) per dropped chunk. The old array
// is only abandoned, never written, so a clone sharing it is unaffected.
//
// Dropping every pair keeps the tail chunk while it has free slots, with
// head at the first of them: a list that drains and refills — the
// cumulative table at the delivery front — goes on writing into it
// instead of allocating a fresh chunk on every refill.
func (l *pairList) dropPrefix(k int) {
	if k <= 0 {
		return
	}
	if k >= int(l.count) {
		k = int(l.count)
		if (int(l.head)+k)&chunkMask == 0 {
			*l = pairList{}
			return
		}
	}
	p := int(l.head) + k
	drop := p >> chunkShift
	l.spine = l.spine[drop:]
	l.dead += int32(drop)
	l.head = int32(p & chunkMask)
	l.count -= int32(k)
	if l.dead > 0 && int(l.dead) >= len(l.spine) {
		// One spare slot: a sliding window appends a chunk for each
		// one it drops, and the next append then needs no new array.
		l.spine, l.dead = append(make([]*chunk, 0, len(l.spine)+1), l.spine...), 0
	}
}

// appendTo copies the pairs onto dst in order.
func (l *pairList) appendTo(dst []Pair) []Pair {
	for i, n := 0, l.len(); i < n; i++ {
		dst = append(dst, l.at(i))
	}
	return dst
}

// check validates the chunk-structure invariants (used by Validate).
func (l *pairList) check() error {
	if l.count < 0 || l.head < 0 {
		return errPairList("negative head or count")
	}
	if int(l.head) >= chunkCap {
		return errPairList("head beyond first chunk")
	}
	want := (int(l.head) + int(l.count) + chunkMask) >> chunkShift
	if len(l.spine) != want {
		return errPairList("spine length mismatch")
	}
	for _, c := range l.spine {
		if c == nil {
			return errPairList("nil chunk")
		}
	}
	return nil
}

type errPairList string

func (e errPairList) Error() string { return "seq: pairList: " + string(e) }
