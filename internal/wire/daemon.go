package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/seq"
	"repro/internal/sim"
)

// Node is one assembled ringnetd daemon: the federation of every ring
// group the config hosts. The daemon owns exactly one UDP transport
// (socket, peer table, clock sync), one shared per-peer batching outbox,
// and one event loop: a scheduler and the driver that paces it against
// the wall clock. Every group's engine, substrate, membership plane,
// sink, workload and timers run on that loop, and so does each inbound
// datagram's dispatch, one call per datagram: all protocol state in the
// process is touched from one goroutine, and it is the only one that
// sends. So does the daemon's own life: one housekeeping tick steps
// every group's lifecycle and ends the run once every peer of every
// group has said it is drained, one tick fsyncs every durable log, and
// the deadline and the fallback exit linger are scheduler events; the
// event that ends the run collects every group's report and closes done.
// Inbound datagrams demultiplex by the group id in each frame section;
// outbound traffic from all groups coalesces in the outbox. Build with
// NewNode, optionally patch late-bound peer addresses, then Run.
type Node struct {
	cfg  Config
	self seq.NodeID
	tr   *Transport
	ob   *SharedOutbox
	drv  *Driver // over the scheduler every group shares

	// tel is the daemon's live telemetry plane — always present, whether
	// or not an admin listener is configured: the exit report derives its
	// counters from it. admin is nil without -admin/admin_fd.
	tel       *nodeTelemetry
	admin     *adminServer
	wallStart time.Time // wall_ms counts from here, in every report

	killed   chan struct{}
	killOnce sync.Once

	// done closes once the driver has ended the run; the event that ends
	// it writes every group's exit report and the first error among them
	// just before, so Run reads them after done without a lock.
	done    chan struct{}
	exit    []GroupReport
	exitErr error

	// filled by Run; mu guards them against Shutdown/Kill from other
	// goroutines (signal handlers, tests).
	mu     sync.Mutex
	groups []*ringGroup
}

// NewNode normalizes and validates cfg and binds the UDP socket. The
// returned node's LocalAddr is final, so in-process clusters can
// exchange addresses before any Run starts.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	self := seq.NodeID(cfg.Node)
	tr, err := Listen(TransportConfig{
		Self:     self,
		Listen:   cfg.Listen,
		ListenFD: cfg.ListenFD,
		Faults: Faults{
			Seed:   cfg.Seed ^ uint64(cfg.Node)<<32,
			Loss:   cfg.Loss,
			Jitter: time.Duration(cfg.JitterUS) * time.Microsecond,
		},
		Drops: cfg.DropRules,
	})
	if err != nil {
		return nil, err
	}
	nd := &Node{
		cfg:       cfg,
		self:      self,
		tr:        tr,
		ob:        NewSharedOutbox(tr, outboxWindow),
		drv:       NewDriver(sim.NewScheduler()),
		tel:       newNodeTelemetry(cfg.Node, cfg.TraceSampleMod),
		wallStart: time.Now(),
		killed:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	nd.ob.SetFlushHistogram(nd.tel.outboxFlushBytes)
	nd.ob.SetTracer(nd.tel.tracer)
	nd.tr.SetTracer(nd.tel.tracer)
	if cfg.Admin != "" || cfg.AdminFD > 0 {
		adm, err := newAdminServer(nd, cfg.Admin, cfg.AdminFD)
		if err != nil {
			tr.Close()
			return nil, err
		}
		nd.admin = adm
	}
	return nd, nil
}

// AdminAddr returns the admin endpoint's bound address, or "" when no
// admin listener is configured.
func (nd *Node) AdminAddr() string {
	if nd.admin == nil {
		return ""
	}
	return nd.admin.addr()
}

// Snapshot collects a live report from every hosted group — the same v2
// schema the exit report uses, served by /status and the periodic
// -report-interval line. Safe from any goroutine; before Run assembles
// the groups it reports none, and once the driver has stopped each
// group reports its static identity only.
func (nd *Node) Snapshot() Report {
	nd.mu.Lock()
	groups := nd.groups
	nd.mu.Unlock()
	var reps []GroupReport
	for _, g := range groups {
		reps = append(reps, GroupReport{Group: g.gid}) // kept once the driver stops
	}
	if len(groups) > 0 {
		nd.drv.CallWait(func() {
			for i, g := range groups {
				reps[i] = g.snapshot()
			}
		})
	}
	return nd.report(reps)
}

// report wraps the groups' reports in the daemon's: the aggregates over
// them, the shared transport's stats, and wall_ms since NewNode. The
// live snapshot and the exit report are both built here.
func (nd *Node) report(groups []GroupReport) Report {
	rep := Report{
		Node:      nd.cfg.Node,
		Groups:    groups,
		Converged: len(groups) > 0,
		Transport: nd.tr.Stats(),
		SendErrs:  nd.ob.SendErrs(),
		Spans:     nd.tel.tracer.Emitted(),
		WallMS:    time.Since(nd.wallStart).Milliseconds(),
	}
	for _, gr := range groups {
		rep.Converged = rep.Converged && gr.Converged
		rep.Delivered += gr.Delivered
		rep.ThroughputPS += gr.ThroughputPS
	}
	return rep
}

// Ready reports the daemon-wide /readyz verdict: every hosted group
// converged-or-ordering, none lame, stores healthy. False before Run
// assembles the groups and after the driver stops.
func (nd *Node) Ready() bool {
	nd.mu.Lock()
	groups := nd.groups
	nd.mu.Unlock()
	if len(groups) == 0 {
		return false
	}
	ok := false
	nd.drv.CallWait(func() {
		ok = true
		for _, g := range groups {
			ok = ok && g.ready()
		}
	})
	return ok
}

// LocalAddr returns the bound socket address ("127.0.0.1:port").
func (nd *Node) LocalAddr() string { return nd.tr.LocalAddr().String() }

// SetPeerAddr fills (or overrides) a peer's address before Run.
func (nd *Node) SetPeerAddr(id uint32, addr string) error {
	for i := range nd.cfg.Peers {
		if nd.cfg.Peers[i].Node == id {
			nd.cfg.Peers[i].Addr = addr
			return nil
		}
	}
	return fmt.Errorf("wire: unknown peer %d", id)
}

// Kill terminates the daemon abruptly mid-run — the in-process
// equivalent of a process crash for live-membership tests. Unlike
// Shutdown nothing is announced: the socket dies, the driver halts, Run
// returns an error. Safe from any goroutine.
func (nd *Node) Kill() {
	nd.killOnce.Do(func() { close(nd.killed) })
}

// Shutdown initiates a graceful leave of every hosted group (live mode):
// announce, keep serving retransmissions, hand off held tokens through
// the normal courier paths, and exit once an epoch of each group
// excludes this node and its couriers drain. Safe from any goroutine; a
// no-op for static rings.
func (nd *Node) Shutdown() {
	nd.mu.Lock()
	groups := nd.groups
	nd.mu.Unlock()
	nd.drv.Call(func() {
		for _, g := range groups {
			if g.ms != nil {
				g.ms.Leave()
			}
		}
	})
}

// Run assembles every hosted group, drives their workloads concurrently
// on the one driver until the run ends there (every group finished, or
// done and the linger over, or the deadline), and reports. It blocks for
// the life of the process's membership in its rings.
func (nd *Node) Run() (Report, error) {
	cfg := nd.cfg

	groups := make([]*ringGroup, 0, len(cfg.Groups))
	fail := func(err error) (Report, error) {
		for _, g := range groups {
			g.sink.close()
		}
		nd.admin.close()
		nd.tr.Close()
		return Report{}, err
	}
	for _, gc := range cfg.Groups {
		g, err := newRingGroup(nd, gc)
		if err != nil {
			return fail(err)
		}
		groups = append(groups, g)
	}
	nd.mu.Lock()
	nd.groups = groups
	nd.mu.Unlock()

	// One reader, one driver, one clock calibration — shared by every
	// group.
	nd.tr.startOn(nd.drv)
	nd.drv.Start()
	nd.drv.CallWait(func() {
		// Clock-offset calibration against the spawn-time peers; pongs
		// are folded in at the transport layer, and the first live one
		// from every peer opens the streams (lifecycle).
		nd.tr.calibrate(nd.drv.sched, nd.peerIDs())
		for _, g := range groups {
			g.start()
		}
		nd.lifecycle(groups)
	})

	select {
	case <-nd.done:
	case <-nd.killed:
	}
	nd.drv.Stop() // no report line is written after Run returns
	nd.admin.close()
	nd.tr.Close()
	for _, g := range groups {
		g.sink.close()
	}
	nd.writeSpanDump()

	select {
	case <-nd.killed:
		return Report{Node: cfg.Node}, fmt.Errorf("wire: node %d killed", cfg.Node)
	default:
	}
	return nd.report(nd.exit), nd.exitErr
}

// lingerFor is how long a daemon whose groups are all done keeps running
// while one of them is not finished: the ceiling for a lost Drained
// notice, and the grace a group that left its ring gives stragglers.
const lingerFor = 300 * sim.Millisecond

// peerIDs lists the configured peers: the spawn-time ring.
func (nd *Node) peerIDs() []seq.NodeID {
	ids := make([]seq.NodeID, len(nd.cfg.Peers))
	for i, p := range nd.cfg.Peers {
		ids[i] = seq.NodeID(p.Node)
	}
	return ids
}

// lifecycle arms the daemon's life on its scheduler. The streams start
// on messages: once every configured peer has answered a live clock
// probe (Transport.awaitLive), every bootstrap group's source opens at
// once, each later by as much as its StartMS exceeds the smallest among
// them, so a configured stagger between groups survives. The StartMS
// timer each group armed at start is the ceiling: whichever comes first
// opens the stream, so a peer that never answers costs StartMS, and a
// joiner opens StartMS after it joins. One housekeeping tick steps every
// group; one tick fsyncs every durable log; with -report-interval, one
// tick writes the live report to stderr. The run
// ends at the first step at which every group is finished (drained, and
// every live peer has said Drained), once that step's sends are flushed;
// or lingerFor after every group is done; or at the deadline, whichever
// comes first. The linger is the ceiling for when a Drained notice was
// lost, and what a group that left the ring gets: a done group keeps
// running through it, serving straggler repairs and answering Done
// beacons, so a peer that lost our notices to the same faults we gossip
// about still hears one before the daemon exits. The event that ends the
// run collects every group and closes done. Driver goroutine only.
func (nd *Node) lifecycle(groups []*ringGroup) {
	s := nd.drv.sched

	var boot []*ringGroup
	var first int64
	for _, g := range groups {
		if !g.gc.Join && g.gc.Count > 0 {
			if len(boot) == 0 || g.gc.StartMS < first {
				first = g.gc.StartMS
			}
			boot = append(boot, g)
		}
	}
	if len(boot) > 0 {
		nd.tr.awaitLive(nd.peerIDs(), func() {
			for _, g := range boot {
				g.openBy(s.Now() + sim.Time(g.gc.StartMS-first)*sim.Millisecond)
			}
		})
	}

	var durable []*ringGroup
	for _, g := range groups {
		if g.sink.dlog != nil {
			durable = append(durable, g)
		}
	}
	if len(durable) > 0 {
		// Batched durability: dirty appends ride one fsync per flush
		// window instead of one per delivery. 25 ms bounds the
		// crash-loss window; BenchmarkFileLogAppend (internal/store)
		// measures what other cadences would cost.
		const fsyncWindow = 25 * sim.Millisecond
		s.Every(fsyncWindow, func() {
			for _, g := range durable {
				g.sync()
			}
		})
	}

	// Periodic live report: the /status snapshot, one JSON line to
	// stderr per interval (operators tail it; the harness parses it).
	if ms := nd.cfg.ReportIntervalMS; ms > 0 {
		s.Every(sim.Time(ms)*sim.Millisecond, func() {
			reps := make([]GroupReport, len(groups))
			for i, g := range groups {
				reps[i] = g.snapshot()
			}
			if b, err := json.Marshal(nd.report(reps)); err == nil {
				fmt.Fprintf(os.Stderr, "ringnetd report: %s\n", b)
			}
		})
	}

	var house *sim.Ticker
	var deadline, linger sim.Timer
	end := func() {
		house.Stop()
		deadline.Stop()
		linger.Stop()
		nd.exit = make([]GroupReport, len(groups))
		for i, g := range groups {
			var err error
			if nd.exit[i], err = g.collect(); err != nil && nd.exitErr == nil {
				nd.exitErr = err
			}
		}
		close(nd.done)
	}
	deadline = s.After(sim.Time(nd.cfg.DeadlineMS)*sim.Millisecond, end)
	house = s.Every(stepEvery, func() {
		now := s.Now()
		done, finished := true, true
		for _, g := range groups {
			g.step(now)
			done = done && g.done()
			finished = finished && g.finished()
		}
		switch {
		case finished:
			// Nobody needs us: end after the flushes this step queued
			// (its Drained notices among them), which run first.
			linger.Stop()
			linger = s.After(0, end)
		case done && !linger.Pending():
			linger = s.After(lingerFor, end)
		}
	})
}

// writeSpanDump writes the /trace NDJSON document to cfg.SpanPath at
// exit, so harness runs keep a per-member trace artifact the stitcher
// can merge without scraping admin endpoints mid-run.
func (nd *Node) writeSpanDump() {
	if nd.cfg.SpanPath == "" {
		return
	}
	f, err := os.Create(nd.cfg.SpanPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringnetd: span dump: %v\n", err)
		return
	}
	defer f.Close()
	if err := writeTraceDump(f, nd.tel, nd.tr); err != nil {
		fmt.Fprintf(os.Stderr, "ringnetd: span dump %s: %v\n", nd.cfg.SpanPath, err)
	}
}

// Run loads a config, runs the daemon to completion, and writes the JSON
// report (one line) to out. This is the whole of cmd/ringnetd and of
// every harness-spawned member process. In live mode SIGTERM triggers a
// graceful leave of every group (announce, drain, hand off held tokens)
// instead of killing the process mid-protocol.
func Run(cfg Config, out io.Writer) (Report, error) {
	nd, err := NewNode(cfg)
	if err != nil {
		return Report{}, err
	}
	if nd.cfg.Live {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		done := make(chan struct{})
		defer close(done)
		defer signal.Stop(sig)
		go func() {
			select {
			case <-sig:
				nd.Shutdown()
			case <-done:
			}
		}()
	}
	rep, runErr := nd.Run()
	if b, err := json.Marshal(rep); err == nil {
		fmt.Fprintf(out, "%s\n", b)
	}
	return rep, runErr
}

// RunFromFile is Run over a config file path.
func RunFromFile(path string, out io.Writer) (Report, error) {
	cfg, err := LoadConfig(path)
	if err != nil {
		return Report{}, err
	}
	return Run(cfg, out)
}
