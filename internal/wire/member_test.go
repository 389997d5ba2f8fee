package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// launchLive assembles n in-process live-membership nodes (joiners
// included — their Peers lists name seeds), with per-node config
// mutation, per-node start delays, and a mid-run action hook, and runs
// them all concurrently.
func launchLive(t *testing.T, n int, mutate func(i int, cfg *Config), delays map[int]time.Duration, action func(nodes []*Node)) ([]Report, []error) {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Groups:     []GroupConfig{{ID: 1}},
			Node:       uint32(i + 1),
			Listen:     "127.0.0.1:0",
			Live:       true,
			Seed:       uint64(2000 + i),
			Count:      60,
			RateHz:     300,
			Payload:    48,
			StartMS:    200,
			DeadlineMS: 60000,
			// Brisk failure detection for test wall-clock budgets.
			HeartbeatMS: 100,
			SuspectMS:   600,
			LameMS:      2000,
			IdleMS:      1200,
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
		for _, p := range nd.cfg.Peers {
			if err := nd.SetPeerAddr(p.Node, nodes[p.Node-1].LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		_ = i
	}
	reports := make([]Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			if d := delays[i]; d > 0 {
				time.Sleep(d)
			}
			reports[i], errs[i] = nd.Run()
		}(i, nd)
	}
	if action != nil {
		action(nodes)
	}
	wg.Wait()
	return reports, errs
}

// awaitStreamStart blocks until nd has opened group 1's stream, which
// happens once its peers answer a clock probe, or at start_ms at the
// latest: a mid-stream fault is timed from here, not from launch.
func awaitStreamStart(t *testing.T, nd *Node) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, ok := streamStarts(nd)[1]; ok {
			return
		}
	}
	t.Errorf("node %d never opened its stream", nd.cfg.Node)
}

// readTrace loads a delivery-trace file's lines.
func readTrace(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSpace(string(b))
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// TestLiveTrioSurvivesCrash: one member of a three-node live ring is
// killed mid-run (socket dies, nothing announced). The survivors must
// detect the failure, evict the corpse at a new epoch, repair the ring
// (regenerating the token if the corpse held it), and converge to the
// identical delivery order.
func TestLiveTrioSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	reports, errs := launchLive(t, 3, nil, nil, func(nodes []*Node) {
		// Mid-run: the workload spans 200 ms from the stream's opening;
		// the kill lands inside it.
		awaitStreamStart(t, nodes[2])
		time.Sleep(120 * time.Millisecond)
		nodes[2].Kill()
	})
	if errs[2] == nil {
		t.Fatal("killed node reported success")
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		r := reports[i]
		if !r.Converged {
			t.Fatalf("survivor %d did not converge: %+v", i+1, r)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("survivor %d order violation: %s", i+1, r.Single().OrderErr)
		}
		if r.Single().Epoch < 2 {
			t.Fatalf("survivor %d never applied an eviction epoch (epoch=%d)", i+1, r.Single().Epoch)
		}
		if r.Single().Members != 2 {
			t.Fatalf("survivor %d final membership %d, want 2", i+1, r.Single().Members)
		}
		t.Logf("survivor %d: delivered=%d order=%s epoch=%d maxGap=%.0fms wall=%dms",
			i+1, r.Delivered, r.Single().OrderHash, r.Single().Epoch, r.Single().MaxGapMS, r.WallMS)
	}
	if reports[0].Single().OrderHash != reports[1].Single().OrderHash {
		t.Fatalf("survivors diverged: %s vs %s", reports[0].Single().OrderHash, reports[1].Single().OrderHash)
	}
	// Both survivors delivered at least their own traffic.
	if reports[0].Delivered < 120 {
		t.Fatalf("suspiciously few deliveries: %d", reports[0].Delivered)
	}
}

// TestLiveGracefulLeave: a member leaves via Shutdown (the SIGTERM path)
// mid-run. It must announce, drain (handing off any held token through
// the normal courier path), and exit cleanly with Left set; its
// delivered stream must be a prefix of the survivors' identical order.
func TestLiveGracefulLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	dir := t.TempDir()
	reports, errs := launchLive(t, 3, func(i int, cfg *Config) {
		cfg.Groups[0].TracePath = filepath.Join(dir, fmt.Sprintf("trace%d", i+1))
		if i == 2 {
			cfg.Count = 30 // the leaver sources less, then departs
		}
	}, nil, func(nodes []*Node) {
		time.Sleep(500 * time.Millisecond)
		nodes[2].Shutdown()
	})
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		if !reports[i].Converged || reports[i].Single().OrderErr != "" {
			t.Fatalf("survivor %d: %+v", i+1, reports[i])
		}
		if reports[i].Single().Epoch < 2 {
			t.Fatalf("survivor %d never applied the leave epoch (epoch=%d)", i+1, reports[i].Single().Epoch)
		}
	}
	if errs[2] != nil {
		t.Fatalf("leaver: %v (report %+v)", errs[2], reports[2])
	}
	if !reports[2].Single().Left {
		t.Fatalf("leaver not marked Left: %+v", reports[2])
	}
	if reports[0].Single().OrderHash != reports[1].Single().OrderHash {
		t.Fatalf("survivors diverged: %s vs %s", reports[0].Single().OrderHash, reports[1].Single().OrderHash)
	}
	// All of the leaver's own messages must appear at the survivors
	// (graceful leave loses nothing that was submitted), and the
	// leaver's delivered stream must be a prefix of the survivors'.
	ref := readTrace(t, filepath.Join(dir, "trace1"))
	leaver := readTrace(t, filepath.Join(dir, "trace3"))
	if len(leaver) == 0 || len(leaver) > len(ref) {
		t.Fatalf("leaver trace %d lines, reference %d", len(leaver), len(ref))
	}
	for i, l := range leaver {
		if ref[i] != l {
			t.Fatalf("leaver trace diverged at line %d: %q vs %q", i, l, ref[i])
		}
	}
	own := 0
	for _, l := range ref {
		if strings.Split(l, " ")[1] == "3" {
			own++
		}
	}
	if own != 30 {
		t.Fatalf("survivors delivered %d of the leaver's 30 messages", own)
	}
	t.Logf("leaver delivered %d (prefix ok), survivors %d, epoch=%d",
		len(leaver), len(ref), reports[0].Single().Epoch)
}

// TestLiveJoinInProcess: a fresh node joins a running two-member ring
// via JoinReq→RingUpdate, splices in at the granted baseline, sources
// its own traffic, and observes a consistent suffix of the total order.
func TestLiveJoinInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	dir := t.TempDir()
	reports, errs := launchLive(t, 3, func(i int, cfg *Config) {
		cfg.Groups[0].TracePath = filepath.Join(dir, fmt.Sprintf("trace%d", i+1))
		if i == 2 {
			cfg.Groups[0].Join = true
			cfg.Count = 20
			cfg.StartMS = 100
			cfg.Peers = []PeerAddr{{Node: 1}, {Node: 2}}
		} else {
			cfg.Count = 150
			cfg.RateHz = 250 // members still sourcing when the joiner lands: 600 ms from readiness, by 200 ms at the latest
			// The joiner is NOT part of the bootstrap ring: only 1↔2.
			cfg.Peers = []PeerAddr{{Node: uint32(2 - i)}}
		}
	}, map[int]time.Duration{2: 400 * time.Millisecond}, nil)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		if !reports[i].Converged || reports[i].Single().OrderErr != "" {
			t.Fatalf("node %d: %+v", i+1, reports[i])
		}
		if reports[i].Single().Members != 3 {
			t.Fatalf("node %d final membership %d, want 3", i+1, reports[i].Single().Members)
		}
	}
	if reports[0].Single().OrderHash != reports[1].Single().OrderHash {
		t.Fatalf("members diverged: %s vs %s", reports[0].Single().OrderHash, reports[1].Single().OrderHash)
	}
	// The joiner's trace must be exactly the tail of the members' trace.
	ref := readTrace(t, filepath.Join(dir, "trace1"))
	joiner := readTrace(t, filepath.Join(dir, "trace3"))
	if len(joiner) == 0 {
		t.Fatal("joiner delivered nothing")
	}
	if reports[2].Single().FirstGlobal <= 1 {
		t.Fatalf("joiner started at global %d — not a mid-stream join", reports[2].Single().FirstGlobal)
	}
	start := len(ref) - len(joiner)
	if start < 0 {
		t.Fatalf("joiner trace (%d) longer than reference (%d)", len(joiner), len(ref))
	}
	for i, l := range joiner {
		if ref[start+i] != l {
			t.Fatalf("joiner suffix diverged at line %d: %q vs %q", i, l, ref[start+i])
		}
	}
	// The joiner's own messages were woven into the shared total order.
	own := 0
	for _, l := range ref {
		if strings.Split(l, " ")[1] == "3" {
			own++
		}
	}
	if own != 20 {
		t.Fatalf("members delivered %d of the joiner's 20 messages", own)
	}
	t.Logf("joiner: suffix of %d lines from global %d, epoch=%d",
		len(joiner), reports[2].Single().FirstGlobal, reports[2].Single().Epoch)
}

// TestDaemonSingleSenderInOrder: a daemon's driver is the only goroutine
// that sends, so on a fault-free loopback ring every peer's datagrams
// arrive in seqno order — no reorders, no gaps — even while clock
// calibration overlaps the data stream: a member joins mid-stream, and
// it and the members it meets ping each other's clocks then.
func TestDaemonSingleSenderInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	reports, errs := launchLive(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			cfg.Groups[0].Join = true
			cfg.Count = 40
			cfg.StartMS = 0
			cfg.Peers = []PeerAddr{{Node: 1}, {Node: 2}}
		} else {
			cfg.Count = 400
			cfg.RateHz = 400 // still sourcing when the joiner lands
			cfg.Peers = []PeerAddr{{Node: uint32(2 - i)}}
		}
	}, map[int]time.Duration{2: 400 * time.Millisecond}, nil)
	for i, r := range reports {
		if errs[i] != nil || !r.Converged || r.Single().Members != 3 {
			t.Fatalf("node %d: %v (report %+v)", i+1, errs[i], r)
		}
		for id, st := range r.Transport.Peers {
			if st.OutOfOrder != 0 || st.GapsSeen != 0 {
				t.Errorf("node %d read %d datagrams from peer %d out of order and %d gaps",
					i+1, st.OutOfOrder, id, st.GapsSeen)
			}
		}
	}
	j := reports[2].Single()
	if j.CrossLatN == 0 {
		t.Fatal("the joiner measured no offset-corrected latency: its calibration never ran")
	}
	if total := reports[0].Single().Delivered; j.FirstGlobal <= 1 || j.FirstGlobal >= total-40 {
		t.Fatalf("joiner started at global %d of %d — not a mid-stream join", j.FirstGlobal, total)
	}
	t.Logf("joiner spliced in at global %d of %d", j.FirstGlobal, reports[0].Single().Delivered)
}

// TestLiveJoinerLeaves covers the full join→leave lifecycle: a process
// joins mid-stream, sources traffic, then departs gracefully. The gate
// that protects a joiner's virgin MQ must not re-engage after eviction
// (the drain needs inbound acks), and its cross-process latency must be
// measured despite the late clock calibration.
func TestLiveJoinerLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	reports, errs := launchLive(t, 3, func(i int, cfg *Config) {
		if i == 2 {
			cfg.Groups[0].Join = true
			cfg.Count = 15
			cfg.StartMS = 100
			cfg.Peers = []PeerAddr{{Node: 1}, {Node: 2}}
		} else {
			cfg.Count = 200
			cfg.RateHz = 150 // members still sourcing through join AND leave
			cfg.Peers = []PeerAddr{{Node: uint32(2 - i)}}
		}
	}, map[int]time.Duration{2: 700 * time.Millisecond}, func(nodes []*Node) {
		time.Sleep(2200 * time.Millisecond) // joined ~0.8s, sourced by ~1s
		nodes[2].Shutdown()
	})
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		if !reports[i].Converged || reports[i].Single().OrderErr != "" {
			t.Fatalf("member %d: %+v", i+1, reports[i])
		}
	}
	if errs[2] != nil {
		t.Fatalf("joiner-leaver: %v (report %+v)", errs[2], reports[2])
	}
	if !reports[2].Single().Left {
		t.Fatalf("joiner-leaver not marked Left: %+v", reports[2])
	}
	if reports[0].Single().OrderHash != reports[1].Single().OrderHash {
		t.Fatalf("members diverged: %s vs %s", reports[0].Single().OrderHash, reports[1].Single().OrderHash)
	}
	// Epochs: join (2) then leave (3).
	if reports[0].Single().Epoch < 3 {
		t.Fatalf("members never applied the leave epoch: %+v", reports[0])
	}
	if reports[2].Single().FirstGlobal <= 1 {
		t.Fatalf("joiner started at global %d — not a mid-stream join", reports[2].Single().FirstGlobal)
	}
	// The post-splice calibration must have produced offset-corrected
	// cross-latency samples for seed-sourced traffic.
	if reports[2].Single().CrossLatN == 0 {
		t.Fatal("joiner collected no cross-process latency samples")
	}
	t.Logf("joiner-leaver: delivered=%d from global %d, crossLatN=%d, members epoch=%d",
		reports[2].Delivered, reports[2].Single().FirstGlobal, reports[2].Single().CrossLatN, reports[0].Single().Epoch)
}

// TestLiveCoordinatorSuccession (satellite for the partition work):
// kill a follower, then kill the coordinator right inside the window
// where it is driving the eviction epoch for that follower. The
// next-lowest live id must finish the reconfiguration without ever
// reusing an epoch number — the dead coordinator may have collected
// quorum grants for its number, so the successor's ledger/timeout path
// skips past it. Had a number been committed twice with different
// member sets, the survivors could not all agree on final epoch,
// membership, and delivery order.
func TestLiveCoordinatorSuccession(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	reports, errs := launchLive(t, 5, nil, nil, func(nodes []*Node) {
		// Node 5's heartbeats stop 120 ms into its stream; with
		// SuspectMS 600 the eviction epoch is in flight at coordinator 1
		// some 600 ms+ later.
		awaitStreamStart(t, nodes[4])
		time.Sleep(120 * time.Millisecond)
		nodes[4].Kill()
		time.Sleep(660 * time.Millisecond)
		nodes[0].Kill()
	})
	for _, i := range []int{0, 4} {
		if errs[i] == nil {
			t.Fatalf("killed node %d reported success: %+v", i+1, reports[i])
		}
	}
	for _, i := range []int{1, 2, 3} {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		r := reports[i]
		if !r.Converged {
			t.Fatalf("survivor %d did not converge: %+v", i+1, r)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("survivor %d order violation: %s", i+1, r.Single().OrderErr)
		}
		if r.Single().Members != 3 {
			t.Fatalf("survivor %d final membership %d, want 3", i+1, r.Single().Members)
		}
		if r.Single().Epoch < 2 {
			t.Fatalf("survivor %d never applied an eviction epoch (epoch=%d)", i+1, r.Single().Epoch)
		}
		// Survivors sourced 3×60 = 180; a handful of slots ordered in
		// the dying epochs may be written off by the really-lost rule
		// (identically at every survivor), so assert the bulk arrived.
		if r.Delivered < 150 {
			t.Fatalf("survivor %d delivered only %d", i+1, r.Delivered)
		}
		t.Logf("survivor %d: delivered=%d order=%s epoch=%d", i+1, r.Delivered, r.Single().OrderHash, r.Single().Epoch)
	}
	for _, i := range []int{2, 3} {
		if reports[i].Single().Epoch != reports[1].Single().Epoch {
			t.Fatalf("epoch split after succession: node %d at %d, node 2 at %d",
				i+1, reports[i].Single().Epoch, reports[1].Single().Epoch)
		}
		if reports[i].Single().OrderHash != reports[1].Single().OrderHash {
			t.Fatalf("survivors diverged: node %d %s vs node 2 %s",
				i+1, reports[i].Single().OrderHash, reports[1].Single().OrderHash)
		}
	}
}

// TestLiveMembershipAddsNoSchedulerEvents: a hosted group keeps no
// scheduler event of its own. Its heartbeat rounds and its
// Order-Assignment pass ride the daemon's housekeeping tick, so a
// daemon's peak pending scheduler events are the same at 1, 8 and 100
// groups, static or live. Each live group still sends one Heartbeat per
// peer per heartbeat interval. The daemon runs on a scheduler no driver
// runs; it is not its ring's leader, and its peers answer nothing but are
// not yet suspected, so it holds no token and proposes nothing.
func TestLiveMembershipAddsNoSchedulerEvents(t *testing.T) {
	const run = 1200 * sim.Millisecond
	mostPending := func(groups int, live bool, heartbeatMS int64) int {
		t.Helper()
		cfg := Config{
			Node:        3,
			Listen:      "127.0.0.1:0",
			Live:        live,
			Peers:       []PeerAddr{{Node: 1, Addr: "127.0.0.1:9"}, {Node: 2, Addr: "127.0.0.1:9"}},
			HeartbeatMS: heartbeatMS,
			SuspectMS:   int64(10 * run / sim.Millisecond),
			DeadlineMS:  60000,
		}
		for i := 1; i <= groups; i++ {
			cfg.Groups = append(cfg.Groups, GroupConfig{ID: uint32(i), Count: -1})
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nd.tr.Close()
		gs := make([]*ringGroup, groups)
		for i, gc := range nd.cfg.Groups {
			if gs[i], err = newRingGroup(nd, gc); err != nil {
				t.Fatal(err)
			}
			defer gs[i].sink.close()
			gs[i].start()
		}
		s := nd.drv.sched
		nd.lifecycle(gs)
		most := 0
		for now := stepEvery; now <= run; now += stepEvery {
			s.Run(now)
			most = max(most, s.Len())
		}
		want := 2 * uint64(run/(sim.Time(heartbeatMS)*sim.Millisecond))
		for _, g := range gs {
			if hb := g.e.ControlReport().Heartbeats; live && hb != want {
				t.Fatalf("%d groups, %d ms heartbeat: group %d sent %d heartbeats in %v, want %d",
					groups, heartbeatMS, g.gid, hb, run, want)
			}
		}
		return most
	}
	for _, c := range []struct {
		live        bool
		heartbeatMS int64
	}{{false, 100}, {true, 100}, {true, 150}} {
		one := mostPending(1, c.live, c.heartbeatMS)
		for _, groups := range []int{8, 100} {
			if most := mostPending(groups, c.live, c.heartbeatMS); most != one {
				t.Fatalf("live %v, %d ms heartbeat: at most %d pending events with %d groups, %d with one",
					c.live, c.heartbeatMS, most, groups, one)
			}
		}
		t.Logf("live %v, %d ms heartbeat: at most %d pending events at 1, 8 and 100 groups", c.live, c.heartbeatMS, one)
	}
}

// TestLiveMinorityStaysUnconverged: a live member cut off from every peer
// goes idle just as one whose stream ended does, and once it suspects
// them all its live-peer set is empty. Having converged just before the
// cut showed, it must fall back to converging, not pass an empty Done
// barrier and leave mid-partition. Peers that already said Done still
// count toward its quorum, so the last member out of a finished ring is
// not stranded when the others exit first.
func TestLiveMinorityStaysUnconverged(t *testing.T) {
	for _, peersDone := range []bool{false, true} {
		nd, err := NewNode(Config{
			Node:        1,
			Listen:      "127.0.0.1:0",
			Live:        true,
			Peers:       []PeerAddr{{Node: 2, Addr: "127.0.0.1:9"}, {Node: 3, Addr: "127.0.0.1:9"}},
			Groups:      []GroupConfig{{ID: 1, Count: -1}},
			HeartbeatMS: 100,
			SuspectMS:   300,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := newRingGroup(nd, nd.cfg.Groups[0])
		if err != nil {
			t.Fatal(err)
		}
		s := nd.drv.sched // never started: this test is its only driver
		g.start()
		g.converged = true
		if peersDone {
			g.doneFrom[2], g.doneFrom[3] = true, true
		}
		for now := stepEvery; now <= 1500*sim.Millisecond; now += stepEvery {
			s.Run(now)
			g.step(now)
		}
		g.sink.close()
		nd.tr.Close()
		if g.converged != peersDone || g.drained != peersDone {
			t.Fatalf("peers said Done: %v; after 1.5 s alone the member reads converged=%v drained=%v, want both %v",
				peersDone, g.converged, g.drained, peersDone)
		}
	}
}
