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
// moves.
func newHandRing(t *testing.T, n int, gcs []GroupConfig) *handRing {
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
		nd, err := NewNode(Config{Node: self, Listen: "127.0.0.1:0", Peers: peers, Groups: slices.Clone(gcs)})
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

// TestDaemonDoneReplyRateLimited: a Done from a peer marks the peer done,
// and a Drained one marks it drained too. Only a converged member answers
// it, with one Done of its own that says whether it has drained, and at
// most once per 50 ms per peer. The group is driven step by step on a
// scheduler no driver runs.
func TestDaemonDoneReplyRateLimited(t *testing.T) {
	r := newHandRing(t, 2, []GroupConfig{{ID: 1, Count: -1}}) // member 2 is only an address
	nd, g := r.nodes[0], r.groups[0][0]
	s := nd.drv.sched // never started: this test is its only driver
	handler := nd.tr.handlers[1].Handler
	// hear runs the scheduler to at, which flushes what earlier steps
	// queued, hands the group a Done from peer 2, and returns the Dones
	// then waiting in peer 2's box.
	hear := func(at sim.Time, drained bool) (replies []*msg.Done) {
		s.Run(at)
		handler(2, []msg.Message{&msg.Done{Drained: drained}})
		for _, m := range pending(nd.ob, 1, 2) {
			if d, done := m.(*msg.Done); done {
				replies = append(replies, d)
			}
		}
		return replies
	}
	if replies := hear(100*sim.Millisecond, false); !g.doneFrom[2] || g.drainedFrom[2] || len(replies) != 0 {
		t.Fatalf("unconverged: peer 2 marked done %v, drained %v, %d Done replies queued; want true, false, 0",
			g.doneFrom[2], g.drainedFrom[2], len(replies))
	}
	g.converged = true
	for _, step := range []struct {
		at      sim.Time
		drained bool // ours, when the peer's Done arrives
		want    int
	}{{100 * sim.Millisecond, false, 1}, {149 * sim.Millisecond, false, 0}, {150 * sim.Millisecond, true, 1}} {
		g.drained = step.drained
		replies := hear(step.at, false)
		if len(replies) != step.want {
			t.Fatalf("converged, Done heard at %v: %d replies queued, want %d", step.at, len(replies), step.want)
		}
		if len(replies) > 0 && replies[0].Drained != step.drained {
			t.Fatalf("Done heard at %v: reply says Drained=%v, want %v", step.at, replies[0].Drained, step.drained)
		}
	}
	if hear(200*sim.Millisecond, true); !g.drainedFrom[2] || !g.finished() {
		t.Fatalf("peer 2 said Drained: marked drained %v, group finished %v; want both", g.drainedFrom[2], g.finished())
	}
}

// TestDaemonBarrierHoldsOneRoundAfterLastConverges: three static members
// converge in turn, 30 ms apart, their traffic carried by hand. The last
// one announces Done to every peer when it converges, even to those it
// heard Done from before, so every member's barrier holds within two
// steps of that — not when an earlier member's next beacon, up to
// beaconEvery later, draws its reply.
func TestDaemonBarrierHoldsOneRoundAfterLastConverges(t *testing.T) {
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: -1}})
	// Member i's lifecycle steps from converges[i] on; having nothing to
	// deliver, it converges at its first step.
	converges := []sim.Time{10 * sim.Millisecond, 40 * sim.Millisecond, 70 * sim.Millisecond}
	last := converges[len(converges)-1]
	held := make([]sim.Time, len(converges))
	for now := stepEvery; now <= last+2*beaconEvery; now += stepEvery {
		r.run(t, now)
		for i, gs := range r.groups {
			g := gs[0]
			if now < converges[i] {
				continue
			}
			g.step(now)
			if !g.converged {
				t.Fatalf("member %d unconverged at %v", i+1, now)
			}
			if held[i] == 0 && g.barrierAt != 0 {
				held[i] = now
			}
		}
	}
	for i, at := range held {
		t.Logf("member %d: converged at %v, barrier held at %v", i+1, converges[i], at)
		if at <= last || at > last+2*stepEvery {
			t.Errorf("member %d: barrier held at %v; want within (%v, %v], two steps after the last member converged",
				i+1, at, last, last+2*stepEvery)
		}
	}
}

// TestDaemonEndsOnceEveryPeerDrained: three static members hosting two
// groups each run their whole lifecycle, their traffic carried by hand. A
// daemon ends its run at the first housekeeping step at which each of its
// groups is drained and has heard Drained from every peer, never before.
// With member 3's Drained notices to member 1 in group 2 withheld —
// replies as well — member 1 ends exactly lingerFor after its groups were
// done, while the others still end on the notices.
func TestDaemonEndsOnceEveryPeerDrained(t *testing.T) {
	for _, withheld := range []bool{false, true} {
		r := newHandRing(t, 3, []GroupConfig{
			{ID: 1, Count: 4, RateHz: 200, StartMS: 20},
			{ID: 2, Count: 3, RateHz: 100, StartMS: 60},
		})
		if withheld {
			r.withhold = func(from, to seq.NodeID, group uint32, m msg.Message) bool {
				d, ok := m.(*msg.Done)
				return ok && d.Drained && from == 3 && to == 1 && group == 2
			}
		}
		// drainedAt[i][gi] is when member i's group drained (it announces
		// Drained then); heard[i][gi][p] when it was handed peer p's.
		drainedAt := make([][]sim.Time, 3)
		heard := make([][]map[seq.NodeID]sim.Time, 3)
		for i := range r.nodes {
			drainedAt[i] = make([]sim.Time, 2)
			heard[i] = []map[seq.NodeID]sim.Time{{}, {}}
		}
		r.carried = func(from, to seq.NodeID, group uint32, m msg.Message, at sim.Time) {
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
			t.Logf("withheld %v, member %d: done at %v, every notice in at %v (%v), run ended at %v", withheld, i+1, done, finished, all, end)
			if nd.exitErr != nil || done == 0 {
				t.Fatalf("member %d: run error %v, done at %v", i+1, nd.exitErr, done)
			}
			if withheld && i == 0 {
				if all || end != done+lingerFor {
					t.Fatalf("member 1, a Drained notice withheld: every notice in %v, ended at %v; want not, and the end lingerFor after done (%v)",
						all, end, done+lingerFor)
				}
				continue
			}
			if !all || end < finished || end > finished+stepEvery {
				t.Fatalf("member %d: every Drained notice in %v at %v, ended at %v; want the first step from then on", i+1, all, finished, end)
			}
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
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: count, RateHz: 200, StartMS: 20}})
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

// TestDaemonStaticTokenLossFromLeaderOnly: in a static ring whose token
// has fallen silent, only the top-ring leader, which injected the token,
// raises Token-Loss: within tokenWatch + stepEvery of the silence, once,
// counted in ringnet_token_signals_total and as one token-loss-signal
// event. A member that has seen the token but is not the leader never
// raises it, so regeneration has one origin. Each member runs on a
// scheduler no driver runs, with peer addresses that answer nothing.
func TestDaemonStaticTokenLossFromLeaderOnly(t *testing.T) {
	r := newHandRing(t, 3, []GroupConfig{{ID: 1, Count: -1}}) // its traffic is handed over below, not carried
	groups := []*ringGroup{r.groups[0][0], r.groups[1][0], r.groups[2][0]}
	leader := groups[0]
	// The leader takes the token it injected and forwards it to member 2:
	// run its events one at a time until the token waits in member 2's
	// box, and hand member 2 that message. Member 2's ack is never
	// delivered, and member 3 hears nothing.
	var tok msg.Message
	for tok == nil && leader.sched.Now() < 200*sim.Millisecond && leader.sched.Step() {
		for _, m := range pending(leader.nd.ob, 1, 2) {
			if _, ok := m.(*msg.TokenMsg); ok {
				tok = m
			}
		}
	}
	if tok == nil {
		t.Fatal("the leader forwarded no token to member 2")
	}
	groups[1].nd.tr.handlers[1].Handler(1, []msg.Message{tok})
	if _, seen := groups[1].ne.TokenActivity(); !seen {
		t.Fatal("member 2 did not take the leader's token")
	}
	signals := func(g *ringGroup) (count uint64, events int) {
		for _, ev := range g.nd.tel.events.Snapshot() {
			if ev.Type == "token-loss-signal" {
				events++
			}
		}
		return g.tel.tokenSignals.Value(), events
	}
	for i, g := range groups {
		for now := stepEvery; now <= 1500*sim.Millisecond; now += stepEvery {
			g.sched.Run(now)
			g.step(now)
			if g != leader || now > tokenWatch+stepEvery {
				continue
			}
			want := 0
			if now == tokenWatch+stepEvery {
				want = 1
			}
			if n, evs := signals(g); n != uint64(want) || evs != want {
				t.Fatalf("leader at %v: %d signals counted, %d events; want %d of each", now, n, evs, want)
			}
		}
		if n, evs := signals(g); g != leader && (n != 0 || evs != 0) {
			t.Fatalf("member %d raised Token-Loss: %d signals counted, %d events", i+1, n, evs)
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
func TestDaemonRetainedBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-second clusters in -short")
	}
	const n = 3000
	retained := func(count int) (live uint64, delivered uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		nodes, reports := runCluster(t, 2, func(i int, cfg *Config) {
			cfg.Count = count
			cfg.RateHz = 3000
		})
		assertIdenticalOrder(t, reports)
		runtime.GC()
		runtime.ReadMemStats(&after)
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
// and no hop refuses a delta for a reason a fault-free ring can cause. A
// slow host (the race detector on a loaded machine) can still starve the
// token past the loss watchdog. Every regeneration traversal restarts the
// token at most once, in a new epoch whose first hop from each member
// travels whole and whose stale deltas are refused — and watchdogs firing
// together restart same-epoch twins, so the highest epoch undercounts the
// restarts. Each member may therefore count as many epoch resyncs as the
// ring started traversals; on a run that never starved, that is none.
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
	var regens float64
	for _, nd := range nodes {
		regens += counter(nd, "ringnet_token_regens_total")
	}
	allowed := func(r core.TokenResync) float64 {
		if r == core.ResyncEpoch {
			return regens
		}
		return 0
	}
	var allHops, allBytes float64
	for _, nd := range nodes {
		allHops += hops(nd)
		allBytes += hopBytes(nd)
		if whole := counter(nd, "ringnet_token_full_sends_total", "reason", "no-base"); whole != 1 {
			t.Errorf("node %d sent %v first hops without a base, want 1", nd.cfg.Node, whole)
		}
		for _, r := range core.SenderResyncs {
			if n := counter(nd, "ringnet_token_full_sends_total", "reason", r.String()); r != core.ResyncNoBase && r != core.ResyncRetransmit && n > allowed(r) {
				t.Errorf("node %d: %v whole-table hops for %v, %v regeneration traversals", nd.cfg.Node, n, r, regens)
			}
		}
		for _, r := range core.ReceiverResyncs {
			if n := counter(nd, "ringnet_token_delta_refused_total", "reason", r.String()); n > allowed(r) {
				t.Errorf("node %d refused %v deltas for %v, %v regeneration traversals", nd.cfg.Node, n, r, regens)
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
		if hop := protocolConfig().Hop; !ok || rto < hop.MinRTO.Seconds() || rto > hop.RTO.Seconds() {
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
