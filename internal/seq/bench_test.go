package seq

import (
	"fmt"
	"testing"
)

// buildToken returns a token whose table holds n entries spread over
// nSources sources, mimicking a steady-state WTSNP.
func buildToken(b testing.TB, n, nSources int) *Token {
	b.Helper()
	tok := NewToken(1)
	next := make(map[NodeID]LocalSeq, nSources)
	for i := 0; i < n; i++ {
		src := NodeID(i%nSources + 1)
		lo := next[src] + 1
		hi := lo + 3
		if _, err := tok.Assign(src, NodeID(nSources+1), lo, hi); err != nil {
			b.Fatal(err)
		}
		next[src] = hi
	}
	return tok
}

// Table sizes: small ring steady state, mid-size, and the default
// CompactAbove threshold (the largest table the protocol lets circulate).
var tableSizes = []int{64, 1024, 4096}

func BenchmarkWTSNPGlobalFor(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			w := tok.Table
			hw := w.MaxAssignedLocal(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := LocalSeq(uint64(i)%uint64(hw) + 1)
				if _, _, ok := w.GlobalFor(1, l); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkWTSNPAbsorb measures a cold absorb: an empty cumulative table
// ingesting a full n-entry token table (the worst case, e.g. right after a
// node reset). The seed implementation was O(n²) here.
func BenchmarkWTSNPAbsorb(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assign := NewWTSNP()
				if added, err := assign.Absorb(tok.Table); err != nil || added != n {
					b.Fatalf("absorbed %d, %v", added, err)
				}
			}
		})
	}
}

// BenchmarkWTSNPAbsorbDelta measures the steady-state hop: the cumulative
// table already knows the token's history and only a single fresh
// assignment has to be folded in (the watermark fast path).
func BenchmarkWTSNPAbsorbDelta(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			assign := NewWTSNP()
			if _, err := assign.Absorb(tok.Table); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := NodeID(i%8 + 1)
				lo := assignNext(tok, src)
				if _, err := tok.Assign(src, 9, lo, lo); err != nil {
					b.Fatal(err)
				}
				if added, err := assign.Absorb(tok.Table); err != nil || added != 1 {
					b.Fatalf("absorbed %d, %v", added, err)
				}
			}
		})
	}
}

// assignNext returns the next contiguous local for src on tok.
func assignNext(tok *Token, src NodeID) LocalSeq {
	return tok.Table.MaxAssignedLocal(src) + 1
}

func BenchmarkTokenClone(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := tok.Clone(); c == nil {
					b.Fatal("nil clone")
				}
			}
		})
	}
}

// BenchmarkTokenCloneMutate measures the full copy-on-write cycle: clone,
// then mutate the clone so it forks its storage (the per-hop pattern in
// core/ordering.go).
func BenchmarkTokenCloneMutate(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := tok.Clone()
				if _, err := c.Assign(1, 9, assignNext(c, 1), assignNext(c, 1)+3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWTSNPCompact measures the cumulative table's steady state: one
// fresh assignment in, the oldest one compacted out, at a constant table
// size. Dropping a prefix costs what it drops, so B/op and ns/op must not
// grow with the table.
func BenchmarkWTSNPCompact(b *testing.B) {
	for _, n := range tableSizes[1:] {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tok := buildToken(b, n, 8)
			w := tok.Table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := NodeID(i%8 + 1)
				lo := assignNext(tok, src)
				if _, err := tok.Assign(src, 9, lo, lo); err != nil {
					b.Fatal(err)
				}
				if dropped := w.Compact(GlobalSeq(w.entries.at(0).Global.Max)); dropped != 1 {
					b.Fatalf("compacted %d entries, want 1", dropped)
				}
			}
		})
	}
}
