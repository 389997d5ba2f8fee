package core

import (
	"repro/internal/msg"
	"repro/internal/seq"
)

// This file keeps the state that lets a token hop carry only what the
// token gained since its successor last saw it (seq.Delta), instead of
// the whole table (paper §4.2.1 transfers the whole OrderingToken every
// hop). Each NE remembers the version its successor acknowledged — the
// sender's base — and the version it last accepted from its predecessor —
// the receiver's base. Any hop the two ends cannot agree on travels
// whole: the first hop to a new successor, the first of a new epoch, a
// token that does not extend the base, and every courier retransmission.
// A member that lacks the history (healed, resumed, joined) therefore
// still receives it. Both bases live on the node's one driver goroutine.

// TokenResync names why a token hop carried its whole table, or why a
// receiver refused a delta.
type TokenResync int

const (
	// ResyncNoBase: no version to cut a delta from (the first hop to this
	// successor, or after a failed transfer), or — at the receiver — not
	// the version the delta names (a restart, a lost acknowledgement).
	ResyncNoBase TokenResync = iota
	// ResyncEpoch: the base belongs to another epoch (regeneration, a
	// merge).
	ResyncEpoch
	// ResyncSuccessor: the base was acknowledged by another successor.
	ResyncSuccessor
	// ResyncPredecessor: the receiver's base came from another
	// predecessor.
	ResyncPredecessor
	// ResyncDigest: the token does not extend the sender's base (a
	// same-epoch twin), or the receiver's copy of the base differs from
	// the sender's.
	ResyncDigest
	// ResyncRetransmit: a courier retransmission, always whole.
	ResyncRetransmit
	// NumTokenResyncs sizes arrays indexed by TokenResync.
	NumTokenResyncs
)

var resyncNames = [NumTokenResyncs]string{"no-base", "epoch", "successor", "predecessor", "digest", "retransmit"}

func (r TokenResync) String() string { return resyncNames[r] }

// SenderResyncs and ReceiverResyncs are the reasons each end of a hop
// reports: whole-table sends, and refused deltas.
var (
	SenderResyncs   = []TokenResync{ResyncNoBase, ResyncEpoch, ResyncSuccessor, ResyncDigest, ResyncRetransmit}
	ReceiverResyncs = []TokenResync{ResyncNoBase, ResyncEpoch, ResyncPredecessor, ResyncDigest}
)

// tokenBase is one end of a hop's delta state: a token version and the
// peer it was exchanged with. tok is an immutable copy no message aliases
// — the simulator hands the sender's object to the receiver, which
// mutates it — held with its table header in one allocation, since a hop
// makes two.
type tokenBase struct {
	peer  seq.NodeID
	tok   seq.Token
	table seq.WTSNP
}

func newTokenBase(peer seq.NodeID, t *seq.Token) *tokenBase {
	b := &tokenBase{peer: peer, tok: *t, table: *t.Table.Clone()}
	b.tok.Table = &b.table
	return b
}

// tokenMsg builds the hop carrying send to nx: a delta from the version
// nx acknowledged when send extends it, the whole token (counted, with
// the reason) otherwise. send becomes the version in flight, which nx's
// acknowledgement promotes to the base (handleTokenAck).
func (n *NE) tokenMsg(nx seq.NodeID, send *seq.Token) *msg.TokenMsg {
	m := &msg.TokenMsg{From: n.id, Token: send}
	switch b := n.txBase; {
	case b == nil:
		n.countWholeToken(ResyncNoBase, nx)
	case b.peer != nx:
		n.countWholeToken(ResyncSuccessor, nx)
	case b.tok.Epoch != send.Epoch:
		n.countWholeToken(ResyncEpoch, nx)
	case !send.DeltaFrom(&b.tok):
		n.countWholeToken(ResyncDigest, nx)
	default:
		m.Base = &b.tok
	}
	n.tokenSent = newTokenBase(nx, send)
	if c := n.e.Tel.TokenHopBytes; c != nil {
		c.Add(uint64(m.WireSize()))
	}
	return m
}

// resendWholeToken is the token courier's retransmission: the whole
// table, since a receiver that refused the first copy lacks its base.
func (n *NE) resendWholeToken(m msg.Message) msg.Message {
	tm, ok := m.(*msg.TokenMsg)
	if !ok {
		return m
	}
	n.countWholeToken(ResyncRetransmit, n.tokenCourier.To())
	if tm.Base == nil {
		return m
	}
	return &msg.TokenMsg{From: tm.From, Token: tm.Token}
}

func (n *NE) countWholeToken(r TokenResync, to seq.NodeID) {
	n.e.Tel.TokenFullSends[r].Inc()
	if r != ResyncRetransmit { // retransmissions are counted, not narrated
		n.e.Tel.Emit("token-resync", uint64(to), r.String())
	}
}

// tokenOf returns the token a TokenMsg carries: the message's own object
// (a whole token, or — in the simulator, which hands over the sender's
// object — any hop), or a delta rebuilt against the version this node
// accepted from the sender. nil means there is nothing to process: a
// refused delta, dropped unacknowledged so the sender's courier resends
// the whole table, or a duplicate the header alone let this node
// acknowledge and swallow.
func (n *NE) tokenOf(from seq.NodeID, m *msg.TokenMsg) *seq.Token {
	d := m.Delta
	if m.Token != nil || d == nil {
		return m.Token
	}
	if n.swallowsToken(d.Epoch, d.Hops) {
		n.ackToken(from, d.Epoch, d.Hops, d.NextGlobalSeq)
		n.countTokenDestroy()
		return nil
	}
	tok, reason := n.rebuildToken(from, d)
	if tok == nil {
		n.e.Tel.TokenDeltaRefused[reason].Inc()
		n.e.Tel.Emit("token-resync", uint64(from), "refused "+reason.String())
	}
	return tok
}

// rebuildToken resolves a delta from from against this node's base, or
// names why it cannot.
func (n *NE) rebuildToken(from seq.NodeID, d *seq.Delta) (*seq.Token, TokenResync) {
	switch b := n.rxBase; {
	case b == nil:
		return nil, ResyncNoBase
	case b.peer != from:
		return nil, ResyncPredecessor
	case b.tok.Epoch != d.Epoch:
		return nil, ResyncEpoch
	case b.tok.Hops != d.BaseHops || b.tok.NextGlobalSeq != d.BaseNext:
		return nil, ResyncNoBase
	default:
		if tok, err := d.Rebuild(&b.tok); err == nil {
			return tok, 0
		}
		return nil, ResyncDigest
	}
}

// keepRxBase records tok as the version this node holds from its
// predecessor — the acknowledgement just sent is what makes the sender
// cut its next delta from it — unless a later one from the same
// predecessor is already held (a stale copy is acknowledged too).
func (n *NE) keepRxBase(from seq.NodeID, tok *seq.Token) {
	if b := n.rxBase; b != nil && b.peer == from &&
		(b.tok.Epoch > tok.Epoch || b.tok.Epoch == tok.Epoch && b.tok.Hops >= tok.Hops) {
		return
	}
	n.rxBase = newTokenBase(from, tok)
}
