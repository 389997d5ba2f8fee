package metrics

import (
	"fmt"
	"hash/fnv"

	"repro/internal/seq"
)

// OrderHash incrementally fingerprints a receiver's delivery order: each
// delivered (global, source, local) tuple is folded into an FNV-64a
// digest. Two receivers delivered the identical totally-ordered stream
// iff their digests match, so cross-process total-order checks (the
// ringnetd cluster harness) and golden-trace pinning (core's
// TestDeliveryTraceGolden) can compare one uint64 instead of shipping
// whole delivery logs around.
//
// The byte format is "%d:%d:%d;" per delivery — shared by every user so
// digests from the simulator and the wire daemon are directly
// comparable.
type OrderHash struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
	n uint64
}

// NewOrderHash returns an empty delivery-order digest.
func NewOrderHash() *OrderHash {
	return &OrderHash{h: fnv.New64a()}
}

// Note folds one delivery into the digest.
func (o *OrderHash) Note(g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq) {
	fmt.Fprintf(o.h, "%d:%d:%d;", g, src, local)
	o.n++
}

// N returns the number of deliveries folded in.
func (o *OrderHash) N() uint64 { return o.n }

// Sum64 returns the current digest.
func (o *OrderHash) Sum64() uint64 { return o.h.Sum64() }

// Hex renders the digest for reports and logs.
func (o *OrderHash) Hex() string { return fmt.Sprintf("%016x", o.h.Sum64()) }
