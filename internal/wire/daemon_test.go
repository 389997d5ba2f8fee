package wire

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// launchCluster assembles n in-process daemon nodes over real loopback
// UDP sockets and runs them to convergence concurrently. This is the
// single-process variant of the harness's multi-process cluster test:
// same engine assembly, same wire path, just shared address space.
func launchCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []Report {
	t.Helper()
	_, reports := runCluster(t, n, mutate)
	return reports
}

// runCluster is launchCluster that also hands back the finished nodes,
// which keep their groups — engine, sink, queues — reachable.
func runCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Node, []Report) {
	t.Helper()
	nodes := newCluster(t, n, mutate)
	return nodes, runNodes(t, nodes)
}

// newCluster assembles n in-process daemon nodes over loopback UDP that
// know each other's addresses, ready to Run.
func newCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Groups:     []GroupConfig{{ID: 1}},
			Node:       uint32(i + 1),
			Listen:     "127.0.0.1:0",
			Seed:       uint64(1000 + i),
			Count:      60,
			RateHz:     600,
			Payload:    48,
			StartMS:    150,
			DeadlineMS: 45000,
		}
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, PeerAddr{Node: uint32(j + 1)})
			}
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for i, nd := range nodes {
		for j, other := range nodes {
			if j != i {
				if err := nd.SetPeerAddr(uint32(j+1), other.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nodes
}

// runNodes runs the nodes to convergence concurrently.
func runNodes(t *testing.T, nodes []*Node) []Report {
	t.Helper()
	n := len(nodes)
	reports := make([]Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			reports[i], errs[i] = nd.Run()
		}(i, nd)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (report %+v)", i+1, err, reports[i])
		}
		g := reports[i].Single()
		t.Logf("node %d: delivered %d/%d order=%s wall=%dms",
			reports[i].Node, g.Delivered, g.Expected, g.OrderHash, reports[i].WallMS)
	}
	return reports
}

func assertIdenticalOrder(t *testing.T, reports []Report) {
	t.Helper()
	for _, r := range reports {
		g := r.Single()
		if !r.Converged || !g.Converged {
			t.Fatalf("node %d did not converge: %+v", r.Node, g)
		}
		if g.Delivered != g.Expected {
			t.Fatalf("node %d delivered %d, expected %d", r.Node, g.Delivered, g.Expected)
		}
		if g.OrderErr != "" {
			t.Fatalf("node %d order violation: %s", r.Node, g.OrderErr)
		}
		if g.OrderHash != reports[0].Single().OrderHash {
			t.Fatalf("delivery order diverged: node %d hash %s vs node %d hash %s",
				r.Node, g.OrderHash, reports[0].Node, reports[0].Single().OrderHash)
		}
	}
}

// TestDaemonPairLossless: the smallest real ring — two processes' worth
// of protocol over loopback UDP, no injected faults.
func TestDaemonPairLossless(t *testing.T) {
	reports := launchCluster(t, 2, nil)
	assertIdenticalOrder(t, reports)
	ctl := reports[0].Single().Control
	if ctl.DataBytes == 0 || ctl.ControlBytes == 0 {
		t.Fatalf("control/data byte split not measured: %+v", ctl)
	}
}

// TestDaemonDeadlineEndsUnconvergedRun: a static pair whose second
// member never runs cannot converge, so the deadline — an event on the
// daemon's scheduler — ends the run: Run returns soon after it with a
// "did not converge" error and a report whose group neither converged
// nor left.
func TestDaemonDeadlineEndsUnconvergedRun(t *testing.T) {
	const deadline = 1500 * time.Millisecond
	nodes := newCluster(t, 2, func(_ int, cfg *Config) {
		cfg.DeadlineMS = deadline.Milliseconds()
	})
	defer nodes[1].tr.Close() // bound, never run
	start := time.Now()
	rep, err := nodes[0].Run()
	took := time.Since(start)
	if took > deadline+time.Second {
		t.Fatalf("Run took %v, over the %v deadline by more than 1s", took, deadline)
	}
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("Run error = %v, want a did-not-converge error", err)
	}
	g := rep.Single()
	if rep.Converged || g.Group != 1 || g.Converged || g.Left {
		t.Fatalf("report claims an outcome the run did not reach: %+v", rep)
	}
	t.Logf("Run returned after %v: %v", took, err)
}

// streamStarts returns nd's stream-start events by group.
func streamStarts(nd *Node) map[uint32]telemetry.Event {
	starts := make(map[uint32]telemetry.Event)
	for _, ev := range nd.tel.events.Snapshot() {
		if ev.Type == "stream-start" {
			starts[ev.Group] = ev
		}
	}
	return starts
}

// TestDaemonStreamStartsOnReady: three daemons over loopback with a
// start_ms of 5 s open their streams once every peer has answered a live
// clock probe, not at the 5 s ceiling, so every run ends well before it.
// Each member's first submit in each group comes after it holds a live
// sample from every peer, and its second group, whose start_ms is 40 ms
// larger, opens about 40 ms after its first: both are due from one
// instant, and the first may fire a little after it is due.
func TestDaemonStreamStartsOnReady(t *testing.T) {
	const ceiling, stagger = 5000, 40
	nodes := newCluster(t, 3, func(_ int, cfg *Config) {
		cfg.StartMS = ceiling
		cfg.Groups = []GroupConfig{{ID: 1}, {ID: 2, StartMS: ceiling + stagger}}
		cfg.TraceSampleMod = 1 // a publish span for every submit
	})
	reports := make([]Report, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	start := time.Now()
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = nd.Run()
		}()
	}
	wg.Wait()
	took := time.Since(start)
	t.Logf("three members ran to the end in %v", took)
	if took >= ceiling/2*time.Millisecond {
		t.Fatalf("the runs took %v; with streams opened on readiness they end well before the %d ms ceiling", took, ceiling)
	}
	for i, nd := range nodes {
		if errs[i] != nil || !reports[i].Converged {
			t.Fatalf("member %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		// The instant the last peer went live, on the trace plane's clock.
		var live int64
		for _, p := range nd.cfg.Peers {
			nd.tr.mu.Lock()
			at := nd.tr.live[seq.NodeID(p.Node)]
			nd.tr.mu.Unlock()
			if at.IsZero() {
				t.Fatalf("member %d holds no live clock sample from peer %d", i+1, p.Node)
			}
			live = max(live, nd.tel.clock.Now()-int64(time.Since(at)))
		}
		firstSubmit := make(map[uint32]int64)
		for _, sp := range nd.tel.tracer.Snapshot() {
			if sp.Stage == "publish" && sp.Source == nd.cfg.Node && sp.Local == 1 {
				firstSubmit[sp.Group] = sp.WallNS
			}
		}
		starts := streamStarts(nd)
		for _, gid := range []uint32{1, 2} {
			ev, sub := starts[gid], firstSubmit[gid]
			t.Logf("member %d group %d: stream-start %q, first submit %v after the last live sample",
				i+1, gid, ev.Detail, time.Duration(sub-live))
			if !strings.HasPrefix(ev.Detail, "ready ") {
				t.Fatalf("member %d group %d: stream-start event %+v, want one opened on readiness", i+1, gid, ev)
			}
			if sub == 0 || sub < live {
				t.Fatalf("member %d group %d: first submit at %d, before the last peer went live at %d", i+1, gid, sub, live)
			}
		}
		if gap := time.Duration(starts[2].WallNS - starts[1].WallNS); gap < stagger/2*time.Millisecond {
			t.Fatalf("member %d: group 2 opened %v after group 1, want about the %d ms start_ms difference", i+1, gap, stagger)
		}
	}
}

// TestDaemonStreamStartCeiling: a peer whose socket is bound but never
// served answers no clock probe, so its partner opens its stream at the
// start_ms ceiling, as it did before streams opened on readiness, and
// says so in its stream-start event.
func TestDaemonStreamStartCeiling(t *testing.T) {
	const ceiling = 300
	nodes := newCluster(t, 2, func(_ int, cfg *Config) {
		cfg.StartMS = ceiling
		cfg.DeadlineMS = 800
	})
	defer nodes[1].tr.Close() // bound, never run
	if _, err := nodes[0].Run(); err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("Run error = %v, want a did-not-converge error", err)
	}
	ev, ok := streamStarts(nodes[0])[1]
	t.Logf("stream-start: %+v", ev)
	if !ok || !strings.HasPrefix(ev.Detail, "ceiling ") {
		t.Fatalf("stream-start event %+v (found %v), want one opened at the ceiling", ev, ok)
	}
	if ev.Value < ceiling || ev.Value >= ceiling+300 {
		t.Fatalf("the stream opened %d ms after launch, want at the %d ms ceiling", ev.Value, ceiling)
	}
}

// handRing is a static ring of daemons, each on a scheduler no driver
// runs, whose traffic the test carries by hand: every message leaves its
// sender's outbox right after the event that queued it, passes through
// the codec, and reaches the receiver's group handler at the instant it
// was sent — unless withhold says to drop it. A member whose run has
// ended sends and receives nothing more, and loses what it queued in the
// event that ended it.
type handRing struct {
	nodes    []*Node
	groups   [][]*ringGroup // by member, then in configured order
	ended    []sim.Time     // when each member's run ended; 0 while it runs
	inflight []handMsg
	withhold func(from, to seq.NodeID, group uint32, m msg.Message) bool
	carried  func(from, to seq.NodeID, group uint32, m msg.Message, at sim.Time) // sees each message handed over
}

type handMsg struct {
	from, to seq.NodeID
	group    uint32
	m        msg.Message
	at       sim.Time
}

// newHandRing builds and starts members 1..n, each hosting gcs, with
// peer addresses that answer nothing: until run carries it, no traffic
// moves. mutate, when set, edits member i's config (i counts from 0)
// before its node is built.
func newHandRing(t *testing.T, n int, gcs []GroupConfig, mutate func(i int, cfg *Config)) *handRing {
	t.Helper()
	r := &handRing{ended: make([]sim.Time, n)}
	for i := 0; i < n; i++ {
		self := uint32(i + 1)
		var peers []PeerAddr
		for p := uint32(1); p <= uint32(n); p++ {
			if p != self {
				peers = append(peers, PeerAddr{Node: p, Addr: "127.0.0.1:9"})
			}
		}
		cfg := Config{Node: self, Listen: "127.0.0.1:0", Peers: peers, Groups: slices.Clone(gcs)}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.tr.Close() })
		var gs []*ringGroup
		for _, gc := range nd.cfg.Groups {
			g, err := newRingGroup(nd, gc)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(g.sink.close)
			g.start()
			gs = append(gs, g)
		}
		r.nodes, r.groups = append(r.nodes, nd), append(r.groups, gs)
	}
	return r
}

// collect moves what member i has queued into flight, stamped with its
// clock.
func (r *handRing) collect(i int) {
	nd := r.nodes[i]
	for _, g := range r.groups[i] {
		for _, to := range r.nodes {
			msgs := pending(nd.ob, g.gid, to.self)
			if len(msgs) == 0 {
				continue
			}
			nd.ob.Drop(g.gid, to.self)
			for _, m := range msgs {
				if r.ended[i] == 0 && (r.withhold == nil || !r.withhold(nd.self, to.self, g.gid, m)) {
					r.inflight = append(r.inflight, handMsg{nd.self, to.self, g.gid, m, nd.drv.sched.Now()})
				}
			}
		}
	}
}

// run executes the running members' events and the messages in flight in
// time order up to until (a member's events before a message sent at the
// same instant), notes when a member's run ends, and leaves every running
// member's clock at until.
func (r *handRing) run(t *testing.T, until sim.Time) {
	for i := range r.nodes {
		r.collect(i) // what a test queued outside any event
	}
	for {
		next, at := -1, until+1
		for i, nd := range r.nodes {
			if when, ok := nd.drv.sched.NextAt(); ok && r.ended[i] == 0 && when < at {
				next, at = i, when
			}
		}
		first := -1
		for k, h := range r.inflight {
			if h.at < at {
				first, at = k, h.at
			}
		}
		switch {
		case first >= 0:
			h := r.inflight[first]
			r.inflight = slices.Delete(r.inflight, first, first+1)
			to := int(h.to) - 1
			if r.ended[to] != 0 {
				continue
			}
			dec, err := msg.Decode(msg.Encode(h.m))
			if err != nil {
				t.Fatal(err)
			}
			r.nodes[to].drv.sched.Run(h.at) // no event of its own is due before
			if r.carried != nil {
				r.carried(h.from, h.to, h.group, dec, h.at)
			}
			r.nodes[to].tr.handlers[h.group].Handler(h.from, []msg.Message{dec})
			r.collect(to)
		case next >= 0:
			nd := r.nodes[next]
			nd.drv.sched.Step()
			select {
			case <-nd.done:
				r.ended[next] = nd.drv.sched.Now()
			default:
			}
			r.collect(next)
		default:
			for i, nd := range r.nodes {
				if r.ended[i] == 0 {
					nd.drv.sched.Run(until) // nothing is due: only the clock moves
				}
			}
			return
		}
	}
}

// TestDaemonDoneReplyRateLimited: a Done from a peer records where the
// peer's stream ends, and a Drained one marks the peer drained too. A
// member answers only once its own stream has ended, with one Done of its
// own that says where that stream ends and whether it has converged, and
// at most once per 50 ms per peer — the first Done from a peer is
// answered whenever it comes, even in the run's first 50 ms. Peer 3 stays
// silent until 60 ms, so the member converges only on its Done, and the
// group is finished only once peer 3 says Drained too. Each group is
// driven step by step on a scheduler no driver runs.
func TestDaemonDoneReplyRateLimited(t *testing.T) {
	// hear runs the scheduler to at, which flushes what earlier steps
	// queued, hands the group a Done from peer from, and returns the
	// Dones then waiting in that peer's box.
	hear := func(r *handRing, from seq.NodeID, at sim.Time, d msg.Done) (replies []msg.Done) {
		nd := r.nodes[0]
		nd.drv.sched.Run(at)
		nd.tr.handlers[1].Handler(from, []msg.Message{&d})
		for _, m := range pending(nd.ob, 1, from) {
			if d, done := m.(*msg.Done); done {
				replies = append(replies, *d)
			}
		}
		return replies
	}
	// Member 1 of this ring has a stream still to send (it opens at the
	// default 250 ms ceiling), so it answers nothing. Members 2 and 3 are
	// only addresses.
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: 5}}, nil)
	if replies := hear(r, 2, 5*sim.Millisecond, msg.Done{Final: 4}); len(replies) != 0 || r.groups[0][0].ends[2] != 4 {
		t.Fatalf("stream not ended: %d Done replies queued, peer 2's end recorded as %d; want 0, 4",
			len(replies), r.groups[0][0].ends[2])
	}
	// Member 1 of this one sources nothing, so its stream ended at start.
	r = newHandRing(t, 3, []GroupConfig{{ID: 1, Count: -1}}, nil)
	g := r.groups[0][0]
	for _, step := range []struct {
		from seq.NodeID
		at   sim.Time
		want []msg.Done
	}{
		{2, 5 * sim.Millisecond, []msg.Done{{}}},
		{2, 30 * sim.Millisecond, nil},
		{2, 55 * sim.Millisecond, []msg.Done{{}}},
		// Peer 3's end is the last one member 1 lacked: it answers, then
		// converges and says Drained.
		{3, 60 * sim.Millisecond, []msg.Done{{}, {Drained: true}}},
		{2, 104 * sim.Millisecond, nil},
		{2, 105 * sim.Millisecond, []msg.Done{{Drained: true}}},
	} {
		replies := hear(r, step.from, step.at, msg.Done{})
		if !slices.Equal(replies, step.want) {
			t.Fatalf("Done from peer %d heard at %v: %+v queued, want %+v", step.from, step.at, replies, step.want)
		}
	}
	if !g.converged {
		t.Fatal("every peer's end heard, nothing to deliver: the member has not converged")
	}
	if hear(r, 2, 200*sim.Millisecond, msg.Done{Drained: true}); !g.drainedFrom[2] || g.finished {
		t.Fatalf("peer 2 said Drained: marked drained %v, group finished %v; want true, false while peer 3 has not",
			g.drainedFrom[2], g.finished)
	}
	if hear(r, 3, 200*sim.Millisecond, msg.Done{Drained: true}); !g.drainedFrom[3] || !g.finished {
		t.Fatalf("peer 3 said Drained too: marked drained %v, group finished %v; want both", g.drainedFrom[3], g.finished)
	}
}

// endOfRun runs three static members hosting gcs through their whole
// lifecycle on a handRing, with member i's config edited by mutate (nil
// edits nothing) and dropping what withhold says (nil drops nothing). It
// returns, by member and group, the instant each member first sent Done
// (its stream ended then: nothing sends Done before), the instant it had
// been handed the first Done of every peer, and the instant it first sent
// Done{Drained: true}.
func endOfRun(t *testing.T, gcs []GroupConfig, mutate func(i int, cfg *Config), withhold func(r *handRing, from, to seq.NodeID, group uint32, m msg.Message) bool) (r *handRing, ended, lastDone, drained [][]sim.Time) {
	t.Helper()
	r = newHandRing(t, 3, gcs, mutate)
	if withhold != nil {
		r.withhold = func(from, to seq.NodeID, group uint32, m msg.Message) bool { return withhold(r, from, to, group, m) }
	}
	ended, lastDone, drained = make([][]sim.Time, 3), make([][]sim.Time, 3), make([][]sim.Time, 3)
	// Whether each member sent Done and Drained yet, and which peers' Done
	// it was handed: a member that sources nothing sends Done at 0.
	sent, said, heard := make([][]bool, 3), make([][]bool, 3), make([][]map[seq.NodeID]bool, 3)
	for i := range r.nodes {
		ended[i], lastDone[i], drained[i] = make([]sim.Time, len(gcs)), make([]sim.Time, len(gcs)), make([]sim.Time, len(gcs))
		sent[i], said[i] = make([]bool, len(gcs)), make([]bool, len(gcs))
		for range gcs {
			heard[i] = append(heard[i], map[seq.NodeID]bool{})
		}
	}
	r.carried = func(from, to seq.NodeID, group uint32, m msg.Message, at sim.Time) {
		d, ok := m.(*msg.Done)
		if !ok {
			return
		}
		i, gi := from-1, group-1
		if !sent[i][gi] {
			sent[i][gi], ended[i][gi] = true, at
		}
		if d.Drained && !said[i][gi] {
			said[i][gi], drained[i][gi] = true, at
		}
		if !heard[to-1][gi][from] {
			heard[to-1][gi][from] = true
			lastDone[to-1][gi] = max(lastDone[to-1][gi], at)
		}
	}
	for _, nd := range r.nodes {
		nd.lifecycle(r.groups[nd.self-1])
	}
	r.run(t, 2*sim.Second)
	for i, nd := range r.nodes {
		if r.ended[i] == 0 || nd.exitErr != nil {
			t.Fatalf("member %d: run ended at %v, error %v", i+1, r.ended[i], nd.exitErr)
		}
	}
	return r, ended, lastDone, drained
}

// twoGroups is the workload the end-of-run tests share: in group 2
// member 2 sources nothing, so its stream ends at start.
var twoGroups = []GroupConfig{
	{ID: 1, Count: 6, RateHz: 200, StartMS: 20},
	{ID: 2, Count: 3, RateHz: 100, StartMS: 60},
}

func member2SourcesNothingInGroup2(i int, cfg *Config) {
	if i == 1 {
		cfg.Groups[1].Count = -1
	}
}

// TestDaemonDoneAnnouncedOnLastDelivery: a member announces where its
// stream ends at the instant it delivers its own last message — not at
// the next housekeeping step — and Final is that message's global. A
// member that sources nothing announces Final 0 at start.
func TestDaemonDoneAnnouncedOnLastDelivery(t *testing.T) {
	r := newHandRing(t, 3, twoGroups, member2SourcesNothingInGroup2)
	// When each member delivered its last message, at which global, and
	// when it first sent Done, with which Final.
	var lastAt, doneAt [3][2]sim.Time
	var lastG, finals [3][2]seq.GlobalSeq
	sent := [3][2]bool{}
	for i, gs := range r.groups {
		for gi, g := range gs {
			inner := g.e.OnDeliver
			g.e.OnDeliver = func(at seq.NodeID, d *msg.Data) {
				if d.SourceNode == g.self && int(d.LocalSeq) == g.gc.Count {
					lastAt[i][gi], lastG[i][gi] = g.sched.Now(), d.GlobalSeq
				}
				inner(at, d)
			}
		}
	}
	r.carried = func(from, _ seq.NodeID, group uint32, m msg.Message, at sim.Time) {
		if d, ok := m.(*msg.Done); ok && !sent[from-1][group-1] {
			sent[from-1][group-1] = true
			doneAt[from-1][group-1], finals[from-1][group-1] = at, d.Final
		}
	}
	for _, nd := range r.nodes {
		nd.lifecycle(r.groups[nd.self-1])
	}
	r.run(t, 2*sim.Second)
	for i, gs := range r.groups {
		for gi, g := range gs {
			t.Logf("member %d group %d: last message delivered at %v as global %d, Done announced at %v with Final %d",
				i+1, g.gid, lastAt[i][gi], lastG[i][gi], doneAt[i][gi], finals[i][gi])
			if !sent[i][gi] || finals[i][gi] != lastG[i][gi] || doneAt[i][gi] != lastAt[i][gi] {
				t.Errorf("member %d group %d: Done announced (%v) Final %d at %v; want %d at %v",
					i+1, g.gid, sent[i][gi], finals[i][gi], doneAt[i][gi], lastG[i][gi], lastAt[i][gi])
			}
		}
	}
	if !sent[1][1] || finals[1][1] != 0 || doneAt[1][1] != 0 {
		t.Errorf("member 2 sources nothing in group 2: Done announced (%v) with Final %d at %v; want 0 at 0", sent[1][1], finals[1][1], doneAt[1][1])
	}
}

// convergedEvents returns the instants, in ms, of nd's converged events by
// group.
func convergedEvents(nd *Node) map[uint32][]uint64 {
	at := make(map[uint32][]uint64)
	for _, ev := range nd.tel.events.Snapshot() {
		if ev.Type == "converged" {
			at[ev.Group] = append(at[ev.Group], ev.Value)
		}
	}
	return at
}

// TestDaemonConvergesOnLastDeliveryOrFinal: every member converges, and
// says Drained, at the instant it has both delivered every stream to its
// end and been handed every peer's Done: on its last delivery, or on the
// Done that brings the last Final if that comes later — not at the next
// housekeeping step, nor a beacon later. The members source unequal
// counts, and in group 2 member 2 sources nothing. Each member records
// its convergence once on /events, at that instant in milliseconds of its
// scheduler's clock.
func TestDaemonConvergesOnLastDeliveryOrFinal(t *testing.T) {
	r, _, lastDone, drained := endOfRun(t, twoGroups, func(i int, cfg *Config) {
		member2SourcesNothingInGroup2(i, cfg)
		if i == 2 {
			cfg.Groups[0].Count = 2
		}
	}, nil)
	for i, gs := range r.groups {
		events := convergedEvents(r.nodes[i])
		for gi, g := range gs {
			want := max(g.sink.lastAt, lastDone[i][gi])
			t.Logf("member %d group %d: last delivery at %v, last Done handed at %v, said Drained at %v, converged events %v ms",
				i+1, g.gid, g.sink.lastAt, lastDone[i][gi], drained[i][gi], events[g.gid])
			if drained[i][gi] != want {
				t.Errorf("member %d group %d: said Drained at %v; want %v", i+1, g.gid, drained[i][gi], want)
			}
			if ev := events[g.gid]; len(ev) != 1 || ev[0] != uint64(want/sim.Millisecond) {
				t.Errorf("member %d group %d: converged events at %v ms; want one at %d ms", i+1, g.gid, ev, want/sim.Millisecond)
			}
		}
	}
}

// TestDaemonUnequalCountsEndOnMessages: members may source different
// counts, or nothing. Three static members sourcing 30, 10 and 30
// messages, or 30, none and 30, learn where one another's streams end
// from their Dones: every member delivers 70 (or 60) messages, on one
// order hash, reports the largest Final, the last global, as expected,
// and ends its run on the last Drained notice.
func TestDaemonUnequalCountsEndOnMessages(t *testing.T) {
	for _, mid := range []int{10, -1} {
		r, _, _, drained := endOfRun(t, []GroupConfig{{ID: 1, Count: 30, RateHz: 200, StartMS: 20}}, func(i int, cfg *Config) {
			if i == 1 {
				cfg.Groups[0].Count = mid
			}
		}, nil)
		want := uint64(60 + max(mid, 0))
		var last sim.Time
		for i := range r.nodes {
			last = max(last, drained[i][0])
		}
		for i, nd := range r.nodes {
			rep := nd.exit[0]
			t.Logf("counts 30/%d/30, member %d: delivered %d, expected %d, hash %s, run ended at %v", mid, i+1, rep.Delivered, rep.Expected, rep.OrderHash, r.ended[i])
			if !rep.Converged || rep.Delivered != want || rep.Expected != want || rep.OrderHash != r.nodes[0].exit[0].OrderHash {
				t.Errorf("counts 30/%d/30, member %d: converged %v, delivered %d, expected %d, hash %s; want true, %d, %d, %s",
					mid, i+1, rep.Converged, rep.Delivered, rep.Expected, rep.OrderHash, want, want, r.nodes[0].exit[0].OrderHash)
			}
			if r.ended[i] != last {
				t.Errorf("counts 30/%d/30, member %d: run ended at %v; want %v, on the last Drained notice", mid, i+1, r.ended[i], last)
			}
		}
	}
}

// TestDaemonWithheldFinalRecovered: a Done whose copy is lost is
// recovered by a message, and every run still ends on the last Drained
// notice. Member 1's stream ends first, at 32 ms, and the others' at
// 78 ms. When member 1's announcement to member 3 is withheld, member 1
// answers member 3's own announcement with its Done, so member 3 learns
// member 1's end the instant its own stream ends. When every Done member
// 3 sends member 1 before 100 ms is withheld, its Drained notice too,
// member 1 learns member 3's end from member 3's reply to member 1's next
// beacon, within beaconEvery + stepEvery of the last withheld copy, and
// converges on that reply.
func TestDaemonWithheldFinalRecovered(t *testing.T) {
	gcs := []GroupConfig{{ID: 1, Count: 12, RateHz: 200, StartMS: 20}}
	member1EndsFirst := func(i int, cfg *Config) {
		if i == 0 {
			cfg.Groups[0].Count = 3
		}
	}
	for _, lost := range []string{"announcement", "every early copy"} {
		from, to := seq.NodeID(1), seq.NodeID(3)
		if lost != "announcement" {
			from, to = 3, 1
		}
		// The last copy withheld, the first one handed over, and the
		// instants member 1 sent member 3 a Done.
		var dropped, handed sim.Time
		var toMember3 []sim.Time
		r, ended, _, drained := endOfRun(t, gcs, member1EndsFirst, func(r *handRing, f, tt seq.NodeID, _ uint32, m msg.Message) bool {
			if _, ok := m.(*msg.Done); !ok {
				return false
			}
			now := r.nodes[f-1].drv.sched.Now()
			if f == 1 && tt == 3 {
				toMember3 = append(toMember3, now)
			}
			switch {
			case f != from || tt != to || handed != 0:
				return false
			case lost == "announcement" && dropped == 0 || lost != "announcement" && now < 100*sim.Millisecond:
				dropped = now
				return true
			}
			handed = now
			return false
		})
		t.Logf("%s withheld: last copy dropped at %v, first handed at %v; streams ended at %v; said Drained at %v; runs ended at %v",
			lost, dropped, handed, ended, drained, r.ended)
		if dropped == 0 || handed == 0 {
			t.Fatalf("%s withheld: dropped at %v, handed at %v; want both", lost, dropped, handed)
		}
		if lost == "announcement" {
			if handed != ended[2][0] {
				t.Errorf("member 1's end reached member 3 at %v; want at %v, in the reply to member 3's announcement", handed, ended[2][0])
			}
		} else {
			if !slices.Contains(toMember3, handed) || handed-dropped > beaconEvery+stepEvery {
				t.Errorf("member 3's end reached member 1 at %v, %v after the last withheld copy; want in the reply to a beacon (member 1 sent member 3 Dones at %v), within %v",
					handed, handed-dropped, toMember3, beaconEvery+stepEvery)
			}
			if drained[0][0] != handed {
				t.Errorf("member 1 said Drained at %v; want at %v, on the reply", drained[0][0], handed)
			}
		}
		var last sim.Time
		for i := range r.nodes {
			last = max(last, drained[i][0])
		}
		for i, end := range r.ended {
			if end != last || !r.nodes[i].exit[0].Converged {
				t.Errorf("%s withheld, member %d: converged %v, run ended at %v; want the end on the last Drained notice, %v",
					lost, i+1, r.nodes[i].exit[0].Converged, end, last)
			}
		}
	}
}

// TestDaemonDrainedWithAcksWithheld: every Ack and TokenAck to member 1
// is withheld once its stream has ended, so when it converges it still
// has unacknowledged sends or a token transfer in flight. It has
// delivered everything all the same, so it says Drained at that instant,
// as every other member does, and every run ends on the last Drained
// notice, not on a timer.
func TestDaemonDrainedWithAcksWithheld(t *testing.T) {
	busy := make([]bool, 2) // by group: member 1 was not idle as it converged
	r, _, lastDone, drained := endOfRun(t, twoGroups, nil, func(r *handRing, from, to seq.NodeID, group uint32, m msg.Message) bool {
		g := r.groups[0][group-1]
		switch m := m.(type) {
		case *msg.Ack, *msg.TokenAck:
			return to == 1 && g.ended()
		case *msg.Done:
			// Queued by the event that converged member 1, before
			// anything else could run.
			if from == 1 && m.Drained && g.converged && !busy[group-1] {
				busy[group-1] = !g.e.Quiesced() || !g.ne.TokenIdle()
			}
		}
		return false
	})
	var last sim.Time
	for i, gs := range r.groups {
		for gi, g := range gs {
			want := max(g.sink.lastAt, lastDone[i][gi])
			t.Logf("member %d group %d: delivered everything at %v, said Drained at %v", i+1, g.gid, want, drained[i][gi])
			if drained[i][gi] != want {
				t.Errorf("member %d group %d: said Drained at %v; want %v, when it had delivered everything", i+1, g.gid, drained[i][gi], want)
			}
			last = max(last, drained[i][gi])
		}
	}
	for gi, b := range busy {
		if !b {
			t.Errorf("group %d: member 1 was quiesced and token-idle as it converged; the withheld acks tested nothing", gi+1)
		}
	}
	for i, end := range r.ended {
		if end != last {
			t.Errorf("member %d: run ended at %v; want %v, on the last Drained notice", i+1, end, last)
		}
	}
}

// TestDaemonConvergedWaitsForRepairingPeer: member 3 sources 3 messages
// and the others 10, and every copy of source 1's last body toward member
// 3 is withheld for 600 ms. Member 3's own stream is ordered before that
// body, so it announces its end early, and members 1 and 2 converge long
// before member 3 can. They keep running, beaconing member 3, until it
// has repaired the body from them and says Drained: member 3 answers
// every beacon, so however long the repair takes, it is never taken as
// gone. Every run ends on the last Drained notice, every member converged
// on one order hash.
func TestDaemonConvergedWaitsForRepairingPeer(t *testing.T) {
	const withheldFor = 600 * sim.Millisecond
	var first sim.Time
	r, _, _, drained := endOfRun(t, []GroupConfig{{ID: 1, Count: 10, RateHz: 200, StartMS: 20}}, func(i int, cfg *Config) {
		if i == 2 {
			cfg.Groups[0].Count = 3
		}
	},
		func(r *handRing, from, to seq.NodeID, _ uint32, m msg.Message) bool {
			d, ok := m.(*msg.Data)
			if !ok || to != 3 || d.SourceNode != 1 || d.LocalSeq != 10 {
				return false
			}
			now := r.nodes[from-1].drv.sched.Now()
			if first == 0 {
				first = now
			}
			return now < first+withheldFor
		})
	t.Logf("body withheld from %v; said Drained at %v; runs ended at %v", first, drained, r.ended)
	if drained[2][0] < first+withheldFor || max(drained[0][0], drained[1][0]) >= first+withheldFor {
		t.Fatalf("members said Drained at %v; want members 1 and 2 before the body's release at %v, member 3 after", drained, first+withheldFor)
	}
	for i, nd := range r.nodes {
		if rep := nd.exit[0]; !rep.Converged || rep.Delivered != 23 || rep.OrderHash != r.nodes[0].exit[0].OrderHash || r.ended[i] != drained[2][0] {
			t.Errorf("member %d: converged %v, delivered %d, hash %s, run ended at %v; want true, 23, %s, at member 3's Drained notice (%v)",
				i+1, rep.Converged, rep.Delivered, rep.OrderHash, r.ended[i], r.nodes[0].exit[0].OrderHash, drained[2][0])
		}
	}
}

// TestDaemonEndsOnceEveryPeerDrained: three static members hosting two
// groups each run their whole lifecycle, their traffic carried by hand. A
// daemon ends its run at the instant each of its groups has converged and
// has heard Drained from every peer, never before: on the notice that
// completes it, or on its own convergence, after only the zero-delay events
// that flush what that event queued and repeat its Drained notices.
// Member 3's Drained notices to member 1 in group 2 are withheld in two
// ways. With only the first copy withheld, member 1 ends on the repeat
// member 3 sends as its own run ends, not on a timer. With every copy
// withheld — replies and the repeat as well — member 1 hears nothing from
// member 3 once member 3 has ended, though it beacons it: a static ring
// has no failure detector, so it takes member 3 as gone lingerFor after
// the later of its own convergence and member 3's last Done, at the first
// step from then on, and reports converged without an error, while the
// others still end on the notices.
func TestDaemonEndsOnceEveryPeerDrained(t *testing.T) {
	for _, withheld := range []string{"none", "first", "all"} {
		r := newHandRing(t, 3, []GroupConfig{
			{ID: 1, Count: 4, RateHz: 200, StartMS: 20},
			{ID: 2, Count: 3, RateHz: 100, StartMS: 60},
		}, nil)
		copies := 0            // member 3's Drained notices to member 1 in group 2
		var lastFrom3 sim.Time // when member 1 was last handed a Done from member 3 in group 2
		r.withhold = func(from, to seq.NodeID, group uint32, m msg.Message) bool {
			if d, ok := m.(*msg.Done); !ok || !d.Drained || from != 3 || to != 1 || group != 2 {
				return false
			}
			copies++
			return withheld == "all" || withheld == "first" && copies == 1
		}
		// drainedAt[i][gi] is when member i's group converged (it
		// announces Drained then); heard[i][gi][p] when it was handed peer
		// p's.
		drainedAt := make([][]sim.Time, 3)
		heard := make([][]map[seq.NodeID]sim.Time, 3)
		for i := range r.nodes {
			drainedAt[i] = make([]sim.Time, 2)
			heard[i] = []map[seq.NodeID]sim.Time{{}, {}}
		}
		r.carried = func(from, to seq.NodeID, group uint32, m msg.Message, at sim.Time) {
			if _, ok := m.(*msg.Done); ok && from == 3 && to == 1 && group == 2 {
				lastFrom3 = at
			}
			if d, ok := m.(*msg.Done); ok && d.Drained {
				sender := r.nodes[from-1].drv.sched.Now()
				if drainedAt[from-1][group-1] == 0 {
					drainedAt[from-1][group-1] = sender
				}
				if _, seen := heard[to-1][group-1][from]; !seen {
					heard[to-1][group-1][from] = at
				}
			}
		}
		for _, nd := range r.nodes {
			nd.lifecycle(r.groups[nd.self-1])
		}
		r.run(t, 2*sim.Second)
		for i, nd := range r.nodes {
			// done: when every group had drained; finished: when, besides,
			// every peer's notice was in; all: whether every notice came.
			var done, finished sim.Time
			all := true
			for gi, g := range r.groups[i] {
				done = max(done, drainedAt[i][gi])
				finished = max(finished, drainedAt[i][gi])
				for _, p := range g.peers {
					at, ok := heard[i][gi][p]
					all = all && ok
					finished = max(finished, at)
				}
			}
			end := r.ended[i]
			t.Logf("withheld %s, member %d: done at %v, every notice in at %v (%v), run ended at %v", withheld, i+1, done, finished, all, end)
			if nd.exitErr != nil || done == 0 {
				t.Fatalf("member %d: run error %v, done at %v", i+1, nd.exitErr, done)
			}
			if withheld == "all" && i == 0 {
				gone := max(drainedAt[0][1], lastFrom3) + lingerFor
				if all || end < gone || end >= gone+stepEvery || !nd.exit[1].Converged {
					t.Fatalf("member 1, every copy of a Drained notice withheld: every notice in %v, ended at %v, group 2 converged %v; want not, the end at the first step from %v, and converged",
						all, end, nd.exit[1].Converged, gone)
				}
				continue
			}
			if !all || end != finished {
				t.Fatalf("withheld %s, member %d: every Drained notice in %v at %v, ended at %v; want the end then", withheld, i+1, all, finished, end)
			}
		}
		if withheld == "first" && (copies < 2 || r.ended[0] >= beaconEvery) {
			t.Fatalf("first copy withheld: member 3 sent member 1 %d Drained notices, member 1 ended at %v; want a repeat, and the end before any beacon", copies, r.ended[0])
		}
	}
}

// TestDaemonStepRunsRepairBackstop: three static members, their traffic
// carried by hand. None of their nodes has a τ ticker (StartLocal arms
// none), so only tokens, TokenAcks, WQ bodies and the housekeeping step
// run the Order-Assignment pass. Every copy of source 1's tenth body
// toward member 3 is withheld for 200 ms, and the workload ends soon
// after, so the idle token stretches its hold and runs the pass ever more
// rarely. Member 3's first repair Nack still leaves within NackTimeout +
// 2·stepEvery of its delivery front stalling on the missing body, each
// later round within as long of the one before, and so the round that
// repairs the body within as long of its release. All three members end
// on one order hash.
func TestDaemonStepRunsRepairBackstop(t *testing.T) {
	const count, withheldLocal, withheldFor = 20, 10, 200 * sim.Millisecond
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: count, RateHz: 200, StartMS: 20}}, nil)
	var firstWithheld, stalled, repaired sim.Time
	var stuck seq.GlobalSeq // member 3's first undeliverable global
	var nacks []sim.Time    // instants member 3 sent a Nack
	r.withhold = func(from, to seq.NodeID, group uint32, m msg.Message) bool {
		d, ok := m.(*msg.Data)
		if !ok || to != 3 || d.SourceNode != 1 || d.LocalSeq != withheldLocal {
			return false
		}
		now := r.nodes[from-1].drv.sched.Now()
		if firstWithheld == 0 {
			firstWithheld = now
		}
		return now < firstWithheld+withheldFor
	}
	r.carried = func(from, to seq.NodeID, group uint32, m msg.Message, at sim.Time) {
		if _, ok := m.(*msg.Nack); ok && from == 3 && (len(nacks) == 0 || nacks[len(nacks)-1] != at) {
			nacks = append(nacks, at)
		}
	}
	for _, nd := range r.nodes {
		nd.lifecycle(r.groups[nd.self-1])
	}
	q := r.groups[2][0].ne.MQ()
	for now := sim.Millisecond; now <= 2*sim.Second; now += sim.Millisecond {
		r.run(t, now)
		switch {
		case stalled == 0 && q.Front() < q.Rear() && !q.Has(q.Front()+1):
			stalled, stuck = now, q.Front()+1
		case stalled != 0 && repaired == 0 && q.Front() >= stuck:
			repaired = now
		}
	}
	bound := r.groups[2][0].e.Cfg.NackTimeout + 2*stepEvery
	released := firstWithheld + withheldFor
	t.Logf("body withheld from %v to %v; member 3 stalled at %v, repaired at %v; its Nacks at %v", firstWithheld, released, stalled, repaired, nacks)
	if firstWithheld == 0 || stalled == 0 || repaired == 0 || len(nacks) == 0 {
		t.Fatalf("body withheld at %v, member 3 stalled at %v and repaired at %v, %d Nacks: want all four", firstWithheld, stalled, repaired, len(nacks))
	}
	last := stalled
	for _, at := range nacks {
		if at > repaired {
			break
		}
		if at-last > bound {
			t.Fatalf("member 3 sent a Nack at %v, %v after the stall or the Nack before; want at most %v", at, at-last, bound)
		}
		last = at
	}
	if repaired-released > bound {
		t.Fatalf("member 3 repaired the body at %v, %v after its release; want at most %v", repaired, repaired-released, bound)
	}
	var hash string
	for i, nd := range r.nodes {
		if r.ended[i] == 0 || nd.exitErr != nil {
			t.Fatalf("member %d: run ended at %v, error %v", i+1, r.ended[i], nd.exitErr)
		}
		rep := nd.exit[0]
		if !rep.Converged || rep.Delivered != 3*count || i > 0 && rep.OrderHash != hash {
			t.Fatalf("member %d: converged %v, delivered %d, order hash %s; want true, %d, %s",
				i+1, rep.Converged, rep.Delivered, rep.OrderHash, 3*count, hash)
		}
		hash = rep.OrderHash
	}
}

// passToken runs from's events one at a time until a token waits in
// to's box, and hands to that message. What to sends back is never
// delivered.
func passToken(t *testing.T, from, to *ringGroup) {
	t.Helper()
	var tok msg.Message
	for tok == nil && from.sched.Now() < 200*sim.Millisecond && from.sched.Step() {
		for _, m := range pending(from.nd.ob, from.gid, to.self) {
			if _, ok := m.(*msg.TokenMsg); ok {
				tok = m
			}
		}
	}
	if tok == nil {
		t.Fatalf("member %d forwarded no token to member %d", from.self, to.self)
	}
	to.nd.tr.handlers[to.gid].Handler(from.self, []msg.Message{tok})
	if _, _, seen := to.ne.TokenStamp(); !seen {
		t.Fatalf("member %d did not take member %d's token", to.self, from.self)
	}
}

// stepTo runs g's scheduler and housekeeping step, as its daemon's tick
// would, at each multiple of stepEvery after g's clock, up to until.
func stepTo(g *ringGroup, until sim.Time) {
	for now := (g.sched.Now()/stepEvery + 1) * stepEvery; now <= until; now += stepEvery {
		g.sched.Run(now)
		g.step(now)
	}
}

// TestDaemonStaticRingRaisesNoTokenLoss: a static ring raises no
// Token-Loss. Its one token's courier retries without bound and no
// member is ever evicted, so token silence there is a slow token or a
// dead member, and a regenerated token mends neither: under CPU
// starvation it split the ring into several orders. The leader forwards
// the token to member 2, whose ack is never delivered, and member 3 hears
// nothing; for 1.5 s, three times the core's Token-Loss threshold, no
// member starts a regeneration traversal. Each member runs on a
// scheduler no driver runs, with peer addresses that answer nothing.
func TestDaemonStaticRingRaisesNoTokenLoss(t *testing.T) {
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: -1}}, nil) // its traffic is handed over below, not carried
	passToken(t, r.groups[0][0], r.groups[1][0])
	for i, gs := range r.groups {
		g := gs[0]
		stepTo(g, 1500*sim.Millisecond)
		if n := g.e.Tel.TokenRegens.Value(); n != 0 {
			t.Fatalf("member %d started %d regeneration traversals", i+1, n)
		}
	}
}

// TestDaemonRetainedBytesPerDelivery: what a member still holds once its
// ring is quiescent must not grow with the number of messages it
// delivered. A pair runs N messages per member, then a fresh pair runs
// 4N; both are long enough to fill every bounded buffer (the retained
// repair window is 4,096 bodies), so the difference in live heap is what
// the daemon keeps per delivery. Nothing the sink keeps grows with
// deliveries (its latency samples are fixed-memory histograms), so the
// bound of 4 B is measurement noise: exact latency samples kept 9, and
// the simulator's delivery oracle, which this path once fed, about 46.
// Each reading collects twice: the first collection only queues the
// finalizers of sockets and files that earlier tests closed and moves
// sync.Pool contents to the pools' victim caches, and the second frees
// both, so neither counts as retained.
func TestDaemonRetainedBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-second clusters in -short")
	}
	const n = 3000
	readLive := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	retained := func(count int) (live uint64, delivered uint64) {
		var before, after runtime.MemStats
		readLive(&before)
		nodes, reports := runCluster(t, 2, func(i int, cfg *Config) {
			cfg.Count = count
			cfg.RateHz = 3000
		})
		assertIdenticalOrder(t, reports)
		readLive(&after)
		for _, nd := range nodes {
			s := nd.groups[0].sink
			if pending := len(s.own) - s.ownHead; pending != 0 || s.ownDropped != 0 {
				t.Errorf("node %d: own-latency FIFO holds %d entries at quiescence (%d dropped)",
					nd.cfg.Node, pending, s.ownDropped)
			}
			delivered += s.delivered()
		}
		runtime.KeepAlive(nodes)
		if after.HeapAlloc < before.HeapAlloc {
			return 0, delivered
		}
		return after.HeapAlloc - before.HeapAlloc, delivered
	}
	live1, d1 := retained(n)
	live4, d4 := retained(4 * n)
	perDelivery := (float64(live4) - float64(live1)) / float64(d4-d1)
	t.Logf("live heap %d B after %d deliveries, %d B after %d: %.1f B per extra delivery",
		live1, d1, live4, d4, perDelivery)
	if perDelivery > 4 {
		t.Fatalf("daemon retains %.1f B per delivery, bound 4", perDelivery)
	}
}

// TestDaemonTokenHopBytes: on a live four-member ring whose token table
// fills to the wire profile's compaction cap, every hop after the first
// rotation travels as a delta from the version its successor
// acknowledged, so the mean encoded TokenMsg is a few entries, not the
// table (about 700 B when each hop carried all of it). Each member sends
// its first hop — to a successor that acknowledged nothing yet — whole,
// and no hop refuses a delta for a reason a fault-free ring can cause. The
// ring is static, so it raises no Token-Loss: however long a slow host
// (the race detector on a loaded machine) starves the token, no
// regeneration traversal restarts it in a new epoch, whose first hops
// would travel whole and whose stale deltas would be refused.
func TestDaemonTokenHopBytes(t *testing.T) {
	nodes := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.Count = 1500
		cfg.RateHz = 1500
	})
	counter := func(nd *Node, name string, labels ...string) float64 {
		v, _ := nd.tel.reg.Value(name, append([]string{"group", "1"}, labels...)...)
		return v
	}
	hops := func(nd *Node) float64 { return counter(nd, "ringnet_token_hops_total") }
	hopBytes := func(nd *Node) float64 { return counter(nd, "ringnet_token_hop_bytes_total") }
	// Snapshot every member once each has forwarded the token: the first
	// rotation is then behind the ring.
	var snapHops, snapBytes float64
	snapped := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			rotated := true
			for _, nd := range nodes {
				rotated = rotated && hops(nd) >= 1
			}
			if rotated {
				for _, nd := range nodes {
					snapHops += hops(nd)
					snapBytes += hopBytes(nd)
				}
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	reports := runNodes(t, nodes)
	close(stop)
	<-snapped
	assertIdenticalOrder(t, reports)
	if snapHops == 0 {
		t.Fatal("the token never completed a rotation")
	}
	var allHops, allBytes float64
	for _, nd := range nodes {
		allHops += hops(nd)
		allBytes += hopBytes(nd)
		// A static ring raises no Token-Loss, however slow its token: its
		// one token is the only one it ever has.
		if n := counter(nd, "ringnet_token_regens_total"); n != 0 {
			t.Errorf("node %d started %v regeneration traversals", nd.cfg.Node, n)
		}
		if whole := counter(nd, "ringnet_token_full_sends_total", "reason", "no-base"); whole != 1 {
			t.Errorf("node %d sent %v first hops without a base, want 1", nd.cfg.Node, whole)
		}
		for _, r := range core.SenderResyncs {
			if n := counter(nd, "ringnet_token_full_sends_total", "reason", r.String()); r != core.ResyncNoBase && r != core.ResyncRetransmit && n > 0 {
				t.Errorf("node %d: %v whole-table hops for %v", nd.cfg.Node, n, r)
			}
		}
		for _, r := range core.ReceiverResyncs {
			if n := counter(nd, "ringnet_token_delta_refused_total", "reason", r.String()); n > 0 {
				t.Errorf("node %d refused %v deltas for %v", nd.cfg.Node, n, r)
			}
		}
	}
	mean := (allBytes - snapBytes) / (allHops - snapHops)
	t.Logf("%.0f hops after the first rotation, mean TokenMsg %.1f B", allHops-snapHops, mean)
	if allHops-snapHops < 20 {
		t.Fatalf("only %.0f hops after the first rotation", allHops-snapHops)
	}
	if mean > 96 {
		t.Fatalf("mean TokenMsg after the first rotation is %.1f B, bound 96", mean)
	}
}

// TestDaemonTrioUnderInjectedLoss: three members, 3% injected datagram
// loss and 2ms injected jitter at every socket. The retransmission
// machinery must still produce the identical total order everywhere.
func TestDaemonTrioUnderInjectedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node loss cluster in -short")
	}
	reports := launchCluster(t, 3, func(i int, cfg *Config) {
		cfg.Loss = 0.03
		cfg.JitterUS = 2000
	})
	assertIdenticalOrder(t, reports)
	var drops uint64
	for _, r := range reports {
		for _, p := range r.Transport.Peers {
			drops += p.InjectedDrops
		}
	}
	if drops == 0 {
		t.Fatal("fault injector never dropped a datagram at 3% loss")
	}
}

// TestDaemonHopGapRepair: four members at 2% injected datagram loss.
// A body lost on a forwarding hop leaves a hole its successor reports in
// its next ack, and the sender repairs it without waiting for the timer:
// the ring converges to one order and some member counted a gap-caused
// retransmission. The token courier's measured timeout stays inside its
// clamp. No latency is asserted.
func TestDaemonHopGapRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node loss cluster in -short")
	}
	nodes := newCluster(t, 4, func(i int, cfg *Config) {
		cfg.Loss = 0.02
		cfg.Count = 400
	})
	reports := runNodes(t, nodes)
	assertIdenticalOrder(t, reports)
	var gaps, timeouts float64
	for _, nd := range nodes {
		g, _ := nd.tel.reg.Value("ringnet_hop_retransmits_total", "group", "1", "cause", "gap")
		to, _ := nd.tel.reg.Value("ringnet_hop_retransmits_total", "group", "1", "cause", "timeout")
		gaps, timeouts = gaps+g, timeouts+to
		rto, ok := nd.tel.reg.Value("ringnet_token_rto_seconds", "group", "1")
		if hop := nd.groups[0].e.Cfg.Hop; !ok || rto < hop.MinRTO.Seconds() || rto > hop.RTO.Seconds() {
			t.Errorf("node %d: token RTO %vs (registered %v), want within [%v, %v]", nd.cfg.Node, rto, ok, hop.MinRTO, hop.RTO)
		}
	}
	t.Logf("hop retransmissions: %v on a gap report, %v on the timer", gaps, timeouts)
	if gaps == 0 {
		t.Fatal("no hop retransmission was caused by a gap report at 2% loss")
	}
}

// TestDaemonMultiGroupFederation: the tentpole in one process — three
// members each hosting three independent ordering groups over one shared
// socket, with different per-group workloads. Every group must converge
// to its own single total order, identical across members, and the
// shared-transport report must show per-group traffic splits for every
// group plus aggregate sums that tile the per-group entries.
func TestDaemonMultiGroupFederation(t *testing.T) {
	const n = 3
	groups := []GroupConfig{
		{ID: 1, Count: 50},
		{ID: 2, Count: 25, RateHz: 300},
		{ID: 3, Count: 10, RateHz: 100, Payload: 16},
		// Count < 0 = source nothing: the group must stay silent (zero
		// deliveries, converged at expected 0), not fall into the
		// workload's count-0-means-unbounded contract.
		{ID: 4, Count: -1},
	}
	reports := make([]Report, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Node:       uint32(i + 1),
			Listen:     "127.0.0.1:0",
			Seed:       uint64(2000 + i),
			RateHz:     600,
			Payload:    48,
			StartMS:    150,
			DeadlineMS: 45000,
			Groups:     append([]GroupConfig(nil), groups...),
		}
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, PeerAddr{Node: uint32(j + 1)})
			}
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for i, nd := range nodes {
		for j, other := range nodes {
			if j != i {
				if err := nd.SetPeerAddr(uint32(j+1), other.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			reports[i], errs[i] = nd.Run()
		}(i, nd)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	for _, r := range reports {
		if !r.Converged {
			t.Fatalf("node %d aggregate did not converge: %+v", r.Node, r)
		}
		if len(r.Groups) != len(groups) {
			t.Fatalf("node %d reports %d groups, hosts %d", r.Node, len(r.Groups), len(groups))
		}
		var sum uint64
		for _, g := range r.Groups {
			if !g.Converged || g.Delivered != g.Expected || g.OrderErr != "" {
				t.Fatalf("node %d group %d: %+v", r.Node, g.Group, g)
			}
			sum += g.Delivered
		}
		if r.Delivered != sum {
			t.Fatalf("node %d aggregate delivered %d != per-group sum %d", r.Node, r.Delivered, sum)
		}
		// Per-group wire accounting: every hosted group moved real bytes
		// through the shared socket, in both directions.
		for _, gc := range groups {
			gs, ok := r.Transport.Groups[gc.ID]
			if !ok || gs.SentBytes == 0 || gs.RecvBytes == 0 {
				t.Fatalf("node %d: no transport traffic split for group %d: %+v (stats %+v)",
					r.Node, gc.ID, gs, r.Transport.Groups)
			}
		}
	}
	for _, gc := range groups {
		ref := reports[0].ByGroup(gc.ID)
		for _, r := range reports[1:] {
			g := r.ByGroup(gc.ID)
			if g == nil || g.OrderHash != ref.OrderHash {
				t.Fatalf("group %d order diverged: node %d vs node %d", gc.ID, r.Node, reports[0].Node)
			}
		}
	}
	// Distinct groups are independent ordering domains: their streams
	// must not have produced the same order fingerprint by construction.
	if h1, h2 := reports[0].ByGroup(1).OrderHash, reports[0].ByGroup(2).OrderHash; h1 == h2 {
		t.Fatalf("groups 1 and 2 share an order hash (%s) — demux leaked across groups", h1)
	}
}

// TestDaemonGoroutinesIndependentOfGroups: a daemon runs every hosted
// group on one event loop, so the goroutines a cluster runs mid-stream
// are the same whether each daemon hosts one group or sixteen.
func TestDaemonGoroutinesIndependentOfGroups(t *testing.T) {
	midRun := func(groups int) int {
		t.Helper()
		nodes := newCluster(t, 2, func(_ int, cfg *Config) {
			cfg.Groups = make([]GroupConfig, groups)
			for i := range cfg.Groups {
				cfg.Groups[i] = GroupConfig{ID: uint32(i + 1)}
			}
			cfg.Count = 100
			cfg.RateHz = 200
			cfg.StartMS = 300
		})
		reports := make([]Report, len(nodes))
		errs := make([]error, len(nodes))
		var wg sync.WaitGroup
		for i, nd := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports[i], errs[i] = nd.Run()
			}()
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()

		// Mid-stream: every group on both daemons has delivered.
		streaming := func() bool {
			for _, nd := range nodes {
				rep := nd.Snapshot()
				if len(rep.Groups) != groups {
					return false
				}
				for _, g := range rep.Groups {
					if g.Delivered == 0 {
						return false
					}
				}
			}
			return true
		}
		deadline := time.Now().Add(10 * time.Second)
		for !streaming() {
			if time.Now().After(deadline) {
				t.Fatalf("groups=%d: not every group delivered", groups)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The least of a few samples, so a goroutine that is only
		// passing through does not count.
		n := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			time.Sleep(10 * time.Millisecond)
			n = min(n, runtime.NumGoroutine())
		}
		select {
		case <-finished:
			t.Fatalf("groups=%d: the run ended before the goroutines were counted", groups)
		default:
		}
		<-finished
		for i, err := range errs {
			if err != nil || !reports[i].Converged || len(reports[i].Groups) != groups {
				t.Fatalf("groups=%d node %d: %v (report %+v)", groups, i+1, err, reports[i])
			}
		}
		return n
	}
	one, sixteen := midRun(1), midRun(16)
	t.Logf("goroutines mid-run: %d with 1 group per daemon, %d with 16", one, sixteen)
	if sixteen > one {
		t.Fatalf("goroutines grew with the group count: %d with 1 group, %d with 16", one, sixteen)
	}
}

// sentDatagrams sums the per-peer datagram counters in a stats snapshot.
func sentDatagrams(st Stats) uint64 {
	var n uint64
	for _, ps := range st.Peers {
		n += ps.SentDatagrams
	}
	return n
}

// TestDaemonGroupScaling measures aggregate ordered deliveries/s as the
// number of federated groups per daemon grows, holding per-group offered
// load fixed. It is a measurement, not a gate — enable it with
//
//	RINGNET_SCALE=1 go test -run TestDaemonGroupScaling -v ./internal/wire/
//
// and copy the logged table into PERFORMANCE.md ("Multi-group scaling").
func TestDaemonGroupScaling(t *testing.T) {
	if os.Getenv("RINGNET_SCALE") == "" {
		t.Skip("measurement run; set RINGNET_SCALE=1 to enable")
	}
	const n = 3
	for _, gcount := range []int{1, 2, 4, 8, 16} {
		groups := make([]GroupConfig, gcount)
		for i := range groups {
			groups[i] = GroupConfig{ID: uint32(i + 1), Count: 150}
		}
		reports := make([]Report, n)
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			cfg := Config{
				Node:       uint32(i + 1),
				Listen:     "127.0.0.1:0",
				Seed:       uint64(7000 + i),
				RateHz:     2000,
				Payload:    64,
				StartMS:    300,
				DeadlineMS: 120000,
				Groups:     append([]GroupConfig(nil), groups...),
			}
			for j := 0; j < n; j++ {
				if j != i {
					cfg.Peers = append(cfg.Peers, PeerAddr{Node: uint32(j + 1)})
				}
			}
			nd, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = nd
		}
		for i, nd := range nodes {
			for j, other := range nodes {
				if j != i {
					if err := nd.SetPeerAddr(uint32(j+1), other.LocalAddr()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, nd := range nodes {
			wg.Add(1)
			go func(i int, nd *Node) {
				defer wg.Done()
				reports[i], errs[i] = nd.Run()
			}(i, nd)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("groups=%d node %d: %v", gcount, i+1, err)
			}
		}
		r := reports[0]
		if !r.Converged {
			t.Fatalf("groups=%d did not converge: %+v", gcount, r)
		}
		wall := float64(r.WallMS) / 1000
		t.Logf("groups=%2d delivered=%6d wall=%6.2fs aggregate=%8.0f deliveries/s (datagrams sent=%d)",
			gcount, r.Delivered, wall, float64(r.Delivered)/wall, sentDatagrams(r.Transport))
	}
}
