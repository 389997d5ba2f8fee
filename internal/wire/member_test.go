package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/seq"
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
	var survivors []*Node
	reports, errs := launchLive(t, 3, nil, nil, func(nodes []*Node) {
		survivors = nodes[:2]
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
	// One eviction raises one Token-Loss signal, at the committing
	// coordinator: at most one traversal, none if the token survived.
	var regens float64
	for _, nd := range survivors {
		n, _ := nd.tel.reg.Value("ringnet_token_regens_total", "group", "1")
		regens += n
	}
	if regens > 1 {
		t.Fatalf("survivors started %v regeneration traversals for one eviction, want at most 1", regens)
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
		cfg.Count = 300 // 1 s from the stream's opening: the others still send as the leaver departs
		if i == 2 {
			cfg.Count = 30 // the leaver sources less (100 ms), then departs
		}
	}, nil, func(nodes []*Node) {
		awaitStreamStart(t, nodes[2])
		time.Sleep(300 * time.Millisecond)
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

// TestLiveJoinAfterPeerStreamEnded: member 2 sources 10 messages, over
// by some 30 ms after its stream opens, and a fresh node joins while
// member 1 still sources. The joiner starts delivering at its granted
// baseline, past member 2's whole stream, so it never delivers the end
// member 2 announced: it converges all the same, since its delivery front
// starts at the baseline, and every member ends on messages, well inside
// the deadline, on one order.
func TestLiveJoinAfterPeerStreamEnded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live cluster in -short")
	}
	dir := t.TempDir()
	start := time.Now()
	reports, errs := launchLive(t, 3, func(i int, cfg *Config) {
		cfg.Groups[0].TracePath = filepath.Join(dir, fmt.Sprintf("trace%d", i+1))
		cfg.DeadlineMS = 20000
		switch i {
		case 0:
			cfg.Count = 300 // 1 s from readiness: still sourcing when the joiner lands
		case 1:
			cfg.Count = 10
		case 2:
			cfg.Groups[0].Join = true
			cfg.Count = 20
			cfg.StartMS = 100
			cfg.Peers = []PeerAddr{{Node: 1}, {Node: 2}}
		}
		if i < 2 {
			cfg.Peers = []PeerAddr{{Node: uint32(2 - i)}}
		}
	}, map[int]time.Duration{2: 400 * time.Millisecond}, nil)
	wall := time.Since(start)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v (report %+v)", i+1, errs[i], reports[i])
		}
		if r := reports[i].Single(); !reports[i].Converged || r.OrderErr != "" || r.Members != 3 {
			t.Fatalf("node %d: %+v", i+1, reports[i])
		}
	}
	if reports[0].Single().OrderHash != reports[1].Single().OrderHash {
		t.Fatalf("members diverged: %s vs %s", reports[0].Single().OrderHash, reports[1].Single().OrderHash)
	}
	// Member 2's last message is ordered below the joiner's first global.
	ref := readTrace(t, filepath.Join(dir, "trace1"))
	var end2 uint64
	for _, l := range ref {
		var g, src, local uint64
		if _, err := fmt.Sscan(l, &g, &src, &local); err == nil && src == 2 && local == 10 {
			end2 = g
		}
	}
	first := reports[2].Single().FirstGlobal
	if end2 == 0 || first <= end2 {
		t.Fatalf("member 2's stream ended at global %d, the joiner's first delivery is global %d: not a join after that stream ended", end2, first)
	}
	joiner := readTrace(t, filepath.Join(dir, "trace3"))
	if tail := ref[len(ref)-len(joiner):]; !slices.Equal(joiner, tail) {
		t.Fatalf("the joiner's %d deliveries are not the tail of member 1's %d", len(joiner), len(ref))
	}
	if wall > 10*time.Second {
		t.Fatalf("the run took %v: not ended on messages", wall)
	}
	t.Logf("member 2 ended at global %d; the joiner delivered %d from global %d; run took %v", end2, len(joiner), first, wall)
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
			cfg.Count = 300
			cfg.RateHz = 150 // members still sourcing through join AND leave: 2 s from their stream's opening
			cfg.Peers = []PeerAddr{{Node: uint32(2 - i)}}
		}
	}, map[int]time.Duration{2: 700 * time.Millisecond}, func(nodes []*Node) {
		time.Sleep(700 * time.Millisecond)
		awaitStreamStart(t, nodes[2])      // 100 ms after it joined
		time.Sleep(300 * time.Millisecond) // its 15 messages went out in the first 100
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
	reports, errs := launchLive(t, 5, func(_ int, cfg *Config) {
		cfg.Count = 450 // 1.5 s: the survivors still send when coordinator 1 dies
	}, nil, func(nodes []*Node) {
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
		// Survivors sourced 3×450 = 1350; a handful of slots ordered in
		// the dying epochs may be written off by the really-lost rule
		// (identically at every survivor), so assert the bulk arrived.
		if r.Delivered < 1200 {
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

// undrivenLive builds member self of a live ring of members 1..n, hosting
// group 1 with nothing to source, on a scheduler no driver runs. Its
// peers are addresses that answer nothing, and its suspect timeout
// outlasts every test that steps it, so it suspects no one.
func undrivenLive(t *testing.T, self uint32, n int) (*Node, *ringGroup) {
	t.Helper()
	return undrivenLiveAt(t, self, n, 100, 60000)
}

// undrivenLiveAt is undrivenLive with the given heartbeat and suspect
// timeouts, in ms.
func undrivenLiveAt(t *testing.T, self uint32, n int, heartbeatMS, suspectMS int64) (*Node, *ringGroup) {
	t.Helper()
	var peers []PeerAddr
	for p := uint32(1); p <= uint32(n); p++ {
		if p != self {
			peers = append(peers, PeerAddr{Node: p, Addr: "127.0.0.1:9"})
		}
	}
	nd, err := NewNode(Config{
		Node:        self,
		Listen:      "127.0.0.1:0",
		Live:        true,
		Peers:       peers,
		Groups:      []GroupConfig{{ID: 1, Count: -1}},
		HeartbeatMS: heartbeatMS,
		SuspectMS:   suspectMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.tr.Close() })
	g, err := newRingGroup(nd, nd.cfg.Groups[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.sink.close)
	g.start()
	return nd, g
}

// updatesTo returns the RingUpdates waiting in nd's box for peer to, and
// empties the box.
func updatesTo(nd *Node, to seq.NodeID) []*msg.RingUpdate {
	var us []*msg.RingUpdate
	for _, m := range pending(nd.ob, 1, to) {
		if u, ok := m.(*msg.RingUpdate); ok {
			us = append(us, u)
		}
	}
	nd.ob.Drop(1, to)
	return us
}

// commitLeave makes coordinator g commit the epoch that evicts leaver:
// the leaver asks (or, when it is g itself, g stages its own departure),
// and member 2 grants the vote.
func commitLeave(t *testing.T, g *ringGroup, leaver seq.NodeID) {
	t.Helper()
	if leaver == g.self {
		g.ms.Leave()
	} else {
		g.nd.tr.handlers[1].Handler(leaver, []msg.Message{&msg.LeaveReq{Group: 1, Node: leaver}})
	}
	g.nd.tr.handlers[1].Handler(2, []msg.Message{&msg.QuorumVote{Group: 1, Epoch: 2, Base: 1, Proposer: g.self, Voter: 2, Granted: true}})
	if g.ms.Epoch() != 2 {
		t.Fatalf("coordinator at epoch %d after member %d's leave was granted, want 2", g.ms.Epoch(), leaver)
	}
}

// TestLiveStaleHeartbeatDrawsCurrentEpoch: a member that is not the
// coordinator answers a heartbeat echoing an older epoch with one copy of
// the current epoch's RingUpdate, at once, and a heartbeat echoing the
// current epoch with nothing.
func TestLiveStaleHeartbeatDrawsCurrentEpoch(t *testing.T) {
	nd, g := undrivenLive(t, 3, 3)
	handler := nd.tr.handlers[1].Handler
	handler(1, []msg.Message{&msg.RingUpdate{Group: 1, Epoch: 2, Coord: 1, Members: []msg.MemberAddr{
		{Node: 1, Addr: "127.0.0.1:9"}, {Node: 2, Addr: "127.0.0.1:9"}, {Node: 3, Addr: nd.LocalAddr()},
	}}})
	if g.ms.Epoch() != 2 || g.ms.coordinator() == g.self {
		t.Fatalf("member 3 at epoch %d, coordinator %d; want epoch 2, not itself", g.ms.Epoch(), g.ms.coordinator())
	}
	updatesTo(nd, 2)
	handler(2, []msg.Message{&msg.Heartbeat{From: 2, Epoch: 1}})
	if us := updatesTo(nd, 2); len(us) != 1 || us[0].Epoch != 2 {
		t.Fatalf("a heartbeat echoing epoch 1 drew %d RingUpdates (%v), want one for epoch 2", len(us), us)
	}
	handler(2, []msg.Message{&msg.Heartbeat{From: 2, Epoch: 2}})
	if us := updatesTo(nd, 2); len(us) != 0 {
		t.Fatalf("a heartbeat echoing the current epoch drew %d RingUpdates", len(us))
	}
}

// TestLiveCoordinatorSendsNoTimedResends: a coordinator disseminates an
// epoch once, when it commits it, to its members and to the leaver it
// lets go, which would otherwise learn it only by retrying its LeaveReq
// while someone is left to answer. A peer that never heartbeats (dead, or
// cut off) costs no further RingUpdate, however long the coordinator
// steps: laggards are answered on their heartbeats, not on a timer.
func TestLiveCoordinatorSendsNoTimedResends(t *testing.T) {
	nd, g := undrivenLive(t, 1, 3)
	commitLeave(t, g, 3)
	for _, to := range []seq.NodeID{2, 3} {
		if us := updatesTo(nd, to); len(us) != 1 || us[0].Epoch != 2 {
			t.Fatalf("commit queued %d RingUpdates to member %d (%v), want one for epoch 2", len(us), to, us)
		}
	}
	sent := g.net.stats.ByKind[msg.KindRingUpdate]
	for now := stepEvery; now <= 5*sim.Second; now += stepEvery {
		nd.drv.sched.Run(now)
		g.step(now)
	}
	if n := g.net.stats.ByKind[msg.KindRingUpdate] - sent; n != 0 || g.ms.Lame() || g.ms.coordinator() != g.self {
		t.Fatalf("5 s of silent peers: %d RingUpdates sent, lame %v, coordinator %d; want 0, false, 1",
			n, g.ms.Lame(), g.ms.coordinator())
	}
}

// TestLiveLeaverAnswersMissedFarewell: a leaving coordinator sends the
// epoch that excludes it once. When that farewell is lost, a survivor
// still heartbeats the leaver at the old epoch, and the leaver, evicted
// but still draining, answers with the excluding epoch at once, before
// any scheduler event runs.
func TestLiveLeaverAnswersMissedFarewell(t *testing.T) {
	nd, g := undrivenLive(t, 1, 3)
	commitLeave(t, g, 1)
	if !g.ms.Evicted() {
		t.Fatal("the leaving coordinator is not evicted by its own epoch")
	}
	updatesTo(nd, 2) // the farewell is lost
	updatesTo(nd, 3)
	nd.tr.handlers[1].Handler(2, []msg.Message{&msg.Heartbeat{From: 2, Epoch: 1}})
	us := updatesTo(nd, 2)
	if len(us) != 1 || us[0].Epoch != 2 {
		t.Fatalf("the survivor's stale heartbeat drew %d RingUpdates (%v), want one for epoch 2", len(us), us)
	}
	for _, ma := range us[0].Members {
		if ma.Node == g.self {
			t.Fatalf("the answer %v still lists the leaver", us[0])
		}
	}
}

// ackToken hands to the TokenAcks waiting in from's box for it.
func ackToken(t *testing.T, from, to *ringGroup) {
	t.Helper()
	var acks []msg.Message
	for _, m := range pending(from.nd.ob, from.gid, to.self) {
		if _, ok := m.(*msg.TokenAck); ok {
			acks = append(acks, m)
		}
	}
	if len(acks) == 0 {
		t.Fatalf("member %d did not acknowledge member %d's token", from.self, to.self)
	}
	to.nd.tr.handlers[to.gid].Handler(from.self, acks)
}

// TestLiveSlowTokenIsNotLost: a slow token is not a lost token. The token
// goes from member 1 to 2 to 3, each hop acknowledged, and member 3's
// forward to member 1 is never delivered. Members 1 and 2 then see no
// token for 1.5 s, three times the core's Token-Loss threshold, and no
// member is evicted: no member starts a regeneration traversal.
func TestLiveSlowTokenIsNotLost(t *testing.T) {
	var groups []*ringGroup
	for self := uint32(1); self <= 3; self++ {
		_, g := undrivenLive(t, self, 3)
		groups = append(groups, g)
	}
	passToken(t, groups[0], groups[1])
	ackToken(t, groups[1], groups[0])
	passToken(t, groups[1], groups[2])
	ackToken(t, groups[2], groups[1])
	for i, g := range groups {
		stepTo(g, 1500*sim.Millisecond)
		if n := g.e.Tel.TokenRegens.Value(); n != 0 || g.ms.Epoch() != 1 {
			t.Fatalf("member %d: %d regeneration traversals at epoch %d, want none at epoch 1", i+1, n, g.ms.Epoch())
		}
	}
}

// TestLiveEvictionCommitRegeneratesOnce: committing the eviction of the
// member a token died with regenerates the token with one traversal,
// even though the coordinator sighted the token less than 500 ms before
// it commits. At heartbeat/suspect 100/300 the coordinator (member 1)
// passes the token to member 2 and takes its ack at 100 ms, when member 3
// heartbeats for the last time; the token dies with member 3. The
// coordinator suspects member 3 at its 500 ms heartbeat round, and member
// 2's vote commits the eviction there: 400 ms of token silence, past the
// derived Token-Loss threshold (300 − 100 ms) and inside the core's
// default 500 ms, which would filter the commit's signal. Nothing starts
// another traversal in the second that follows.
func TestLiveEvictionCommitRegeneratesOnce(t *testing.T) {
	_, coord := undrivenLiveAt(t, 1, 3, 100, 300)
	_, g2 := undrivenLiveAt(t, 2, 3, 100, 300)
	passToken(t, coord, g2)
	in := coord.nd.tr.handlers[1].Handler
	ackAt, lastBeat3 := 100*sim.Millisecond, 100*sim.Millisecond
	var committedAt sim.Time
	for now := stepEvery; now <= 1500*sim.Millisecond; now += stepEvery {
		coord.sched.Run(now)
		if now == ackAt {
			ackToken(t, g2, coord)
		}
		if now <= lastBeat3 {
			in(3, []msg.Message{&msg.Heartbeat{From: 3, Epoch: 1}})
		}
		in(2, []msg.Message{&msg.Heartbeat{From: 2, Epoch: coord.ms.Epoch()}})
		coord.step(now)
		if committedAt == 0 && coord.ms.prop != nil {
			in(2, []msg.Message{&msg.QuorumVote{Group: 1, Epoch: coord.ms.prop.epoch, Base: 1, Proposer: 1, Voter: 2, Granted: true}})
			if coord.ms.Epoch() == 1 {
				t.Fatalf("member 2's vote did not commit epoch %d at %v", coord.ms.prop.epoch, now)
			}
			committedAt = now
			if n := coord.e.Tel.TokenRegens.Value(); n != 1 {
				t.Fatalf("committing member 3's eviction at %v, %v after the token's last ack, started %d traversals, want 1",
					now, now-ackAt, n)
			}
		}
	}
	if want := lastBeat3 + 400*sim.Millisecond; committedAt != want {
		t.Fatalf("member 3's eviction committed at %v, want %v", committedAt, want)
	}
	if n := coord.e.Tel.TokenRegens.Value(); n != 1 {
		t.Fatalf("%d regeneration traversals by %v, want the commit's 1", n, 1500*sim.Millisecond)
	}
}

// TestLiveTraversalCarriesItsEpoch: a member that missed the commit of an
// eviction still passes the regeneration traversal the commit starts,
// because each hop of a traversal arrives behind its sender's current
// RingUpdate. On a live ring of four members (heartbeat/suspect 100/600),
// member 4 dies at 450 ms with the token on its way to it, and the
// RingUpdate that evicts it never reaches member 3, its predecessor, which
// hears of the epoch only through the traversal's hop from member 2.
// Without that, member 3 met the traversal on the old ring and destroyed
// it (its copy of the token, unacknowledged by the corpse, read as
// ordering well), then dropped that copy on catching up: no member ever
// ordered again. The members run on schedulers no driver runs, their
// traffic carried by hand.
func TestLiveTraversalCarriesItsEpoch(t *testing.T) {
	const died = 450 * sim.Millisecond
	r := newHandRing(t, 4, []GroupConfig{{ID: 1, Count: 200, RateHz: 200}}, func(i int, cfg *Config) {
		cfg.Live, cfg.HeartbeatMS, cfg.SuspectMS, cfg.DeadlineMS = true, 100, 600, 10000
	})
	lost := false
	r.withhold = func(from, to seq.NodeID, _ uint32, m msg.Message) bool {
		if _, ok := m.(*msg.RingUpdate); ok && from == 1 && to == 3 && !lost {
			lost = true
			return true
		}
		return false
	}
	for _, nd := range r.nodes {
		nd.lifecycle(r.groups[nd.self-1])
	}
	r.run(t, died)
	r.ended[3] = died // member 4 runs nothing more and hears nothing
	r.run(t, 12*sim.Second)
	if !lost {
		t.Fatal("coordinator 1 sent member 3 no RingUpdate")
	}
	var regens uint64
	for i := range 3 {
		regens += r.groups[i][0].e.Tel.TokenRegens.Value()
		rep := r.nodes[i].exit[0]
		if !rep.Converged || rep.Epoch != 2 || rep.OrderHash != r.nodes[0].exit[0].OrderHash {
			t.Fatalf("member %d: converged %v at epoch %d with order hash %s at %v; want converged at epoch 2 on member 1's %s",
				i+1, rep.Converged, rep.Epoch, rep.OrderHash, r.ended[i], r.nodes[0].exit[0].OrderHash)
		}
	}
	if regens != 1 {
		t.Fatalf("survivors started %d regeneration traversals for one eviction, want 1", regens)
	}
}

// TestLiveMinorityStaysUnconverged: a live member cut off from every
// peer before their streams ended suspects them all, so its live-peer set
// empties and it knows no end it still waits for. It must not converge on
// that empty set and leave mid-partition: it parks lame, a minority of
// its ring. A member whose peers said Drained, their streams ending where
// they began, has delivered everything: it converges on their notices,
// before the cut shows, so the last member out of a finished ring is not
// stranded when the others exit first.
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
		for _, p := range []seq.NodeID{2, 3} {
			if peersDone {
				nd.tr.handlers[1].Handler(p, []msg.Message{&msg.Done{Drained: true}})
			}
		}
		for now := stepEvery; now <= 1500*sim.Millisecond; now += stepEvery {
			s.Run(now)
			g.step(now)
		}
		g.sink.close()
		nd.tr.Close()
		if g.converged != peersDone || g.finished != peersDone || len(g.livePeers()) != 0 {
			t.Fatalf("peers said Drained: %v; after 1.5 s alone the member reads converged=%v finished=%v with %d live peers, want %v, %v, 0",
				peersDone, g.converged, g.finished, len(g.livePeers()), peersDone, peersDone)
		}
		if !peersDone && !g.ms.Lame() {
			t.Fatal("cut off from every peer, the member is not parked lame")
		}
	}
}

// TestLiveBehindBaselineStaysUnconverged: a live member whose delivery
// front is below its epoch's stream baseline, as one merged back from the
// lame ring is until Nack repair catches it up, still has globals to
// deliver. It knows where every stream ends, has delivered every
// announced one, and its MQ shows no gap, but it must not converge: if it
// did, its Drained notice could end the run before it caught up. Once its
// front reaches the baseline, it converges at the next step.
func TestLiveBehindBaselineStaysUnconverged(t *testing.T) {
	_, g := undrivenLive(t, 1, 3)
	u := *g.ms.lastUpdate
	u.Baseline = g.ne.MQ().Front() + 10
	g.ms.lastUpdate = &u
	g.sched.Run(stepEvery)
	for _, p := range []seq.NodeID{2, 3} {
		g.nd.tr.handlers[1].Handler(p, []msg.Message{&msg.Done{}})
	}
	for now := 2 * stepEvery; now <= 2*sim.Second; now += stepEvery {
		g.sched.Run(now)
		g.step(now)
	}
	if g.converged {
		t.Fatalf("front %d, epoch baseline %d: converged; want not until it catches up", g.ne.MQ().Front(), u.Baseline)
	}
	u.Baseline = g.ne.MQ().Front()
	g.step(2 * sim.Second)
	if !g.converged {
		t.Fatalf("front %d at the epoch baseline, every stream delivered to its end: unconverged, want converged", g.ne.MQ().Front())
	}
}
