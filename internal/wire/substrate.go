package wire

import (
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/seq"
	"repro/internal/sim"
)

// outboxNet is the wire plane's core.Network for one hosted group, and
// the group's only way to the network: every message the group sends —
// protocol, membership, Done gossip — is a shared-outbox enqueue in the
// call stack of the event that produced it, tagged with the group's id
// so it coalesces with sibling groups' traffic for the same peer. The
// real network supplies latency, jitter, loss and reordering, so there is
// nothing here to simulate: no links, no endpoint table, no RNG — only
// the set of peers the group reaches (ring members and seeds, plus
// removed members still draining) and the simulator's own send
// accounting, so a ControlReport reads the same over either substrate.
// That peer set and the transport's references for the group change
// together, in admit and retire. Inbound sections do not pass through
// here; newRingGroup hands them to the local NE from the transport's
// receive hook. Driver goroutine only.
type outboxNet struct {
	sched *sim.Scheduler // the daemon's, shared by every group
	ob    *SharedOutbox
	group uint32
	local seq.NodeID
	peers map[seq.NodeID]bool
	stats netsim.Stats
	// epochTo, on a live ring, sends a peer this member's current epoch
	// (Membership.sendUpdate). Send calls it ahead of every TokenRegen,
	// in the same box, so a hop that missed the commit meets the
	// traversal on the new ring: on the old one, the dead member's
	// predecessor destroys or strands it, then drops its token copy.
	epochTo func(to seq.NodeID)
}

var _ core.Network = (*outboxNet)(nil)

func newOutboxNet(sched *sim.Scheduler, ob *SharedOutbox, group uint32, local seq.NodeID) *outboxNet {
	return &outboxNet{sched: sched, ob: ob, group: group, local: local, peers: make(map[seq.NodeID]bool)}
}

// admit makes peer id a destination sends reach: the transport
// references it for this group at addr, which also refreshes a known
// peer's address. fresh reports whether the group did not reach id
// before; ok is false, and nothing changes, when an unknown peer has no
// usable address.
func (n *outboxNet) admit(id seq.NodeID, addr string) (fresh, ok bool) {
	fresh = !n.peers[id]
	if (addr == "" || n.ob.tr.AddPeer(n.group, id, addr) != nil) && fresh {
		return true, false
	}
	n.peers[id] = true
	return fresh, true
}

// retire removes p: later sends to it are dropped, and so are this
// group's unflushed backlog for it and its transport reference (the
// member is gone; reliability state pointing at it is NE.DropPeer's
// business).
func (n *outboxNet) retire(p seq.NodeID) {
	if n.peers[p] {
		delete(n.peers, p)
		n.ob.Drop(n.group, p)
		n.ob.tr.RemovePeer(n.group, p)
	}
}

// calibrate probes the clocks of peers (daemon-wide, on group 0).
func (n *outboxNet) calibrate(peers []seq.NodeID) { n.ob.tr.calibrate(n.sched, peers) }

func (n *outboxNet) Scheduler() *sim.Scheduler { return n.sched }

// Send enqueues m for an admitted peer and reports whether it did. A send
// to anything else — a retired peer, the local node — is counted and
// dropped, the sender learning nothing, like a simulated send with no
// route.
func (n *outboxNet) Send(from, to seq.NodeID, m msg.Message) bool {
	if _, regen := m.(*msg.TokenRegen); regen && n.epochTo != nil {
		n.epochTo(to)
	}
	ok := from == n.local && n.peers[to]
	if size := n.stats.Count(m, ok); ok {
		n.ob.enqueue(n.sched, n.group, to, m, size)
	}
	return ok
}

func (n *outboxNet) SendBurst(from, to seq.NodeID, msgs []msg.Message) {
	for _, m := range msgs {
		n.Send(from, to, m)
	}
}

func (n *outboxNet) Stats() netsim.Stats { return n.stats.Snapshot() }

// The rest of core.Network has nothing to do here. The only endpoint is
// the local NE, which the transport hook feeds directly; every admitted
// peer is one socket hop away, so there are no links to wire and every
// pair counts as linked; and a crash on this substrate is a process
// exit, not an injected fault.

func (n *outboxNet) Register(seq.NodeID, netsim.Handler)               {}
func (n *outboxNet) Unregister(seq.NodeID)                             {}
func (n *outboxNet) Connect(seq.NodeID, seq.NodeID, netsim.LinkParams) {}
func (n *outboxNet) Disconnect(seq.NodeID, seq.NodeID)                 {}
func (n *outboxNet) Linked(seq.NodeID, seq.NodeID) bool                { return true }
func (n *outboxNet) Crash(seq.NodeID)                                  {}
func (n *outboxNet) Recover(seq.NodeID)                                {}
