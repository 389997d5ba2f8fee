package wire

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
		if chanClosed(finished) {
			t.Fatalf("groups=%d: the run ended before the goroutines were counted", groups)
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
