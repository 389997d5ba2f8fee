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
// sends. Inbound datagrams demultiplex by the group id in each frame
// section; outbound traffic from all groups coalesces in the outbox.
// Build with NewNode,
// optionally patch late-bound peer addresses, then Run.
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
	wallStart time.Time

	killed   chan struct{}
	killOnce sync.Once

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
	rep := Report{
		Node:      nd.cfg.Node,
		Converged: len(groups) > 0,
		Transport: nd.tr.Stats(),
		SendErrs:  nd.ob.SendErrs(),
		Spans:     nd.tel.tracer.Emitted(),
		WallMS:    time.Since(nd.wallStart).Milliseconds(),
	}
	for _, g := range groups {
		rep.Groups = append(rep.Groups, GroupReport{Group: g.gid}) // kept once the driver stops
	}
	if len(groups) > 0 {
		nd.drv.CallWait(func() {
			for i, g := range groups {
				rep.Groups[i] = g.snapshot()
			}
		})
	}
	for _, gr := range rep.Groups {
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
// on the one driver, waits for each to converge (or for the shared
// deadline), drains, and reports. It blocks for the life of
// the process's membership in its rings.
func (nd *Node) Run() (Report, error) {
	cfg := nd.cfg
	wallStart := time.Now()

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
		// are folded in at the transport layer while the rings warm up.
		peers := make([]seq.NodeID, len(cfg.Peers))
		for i, p := range cfg.Peers {
			peers[i] = seq.NodeID(p.Node)
		}
		nd.tr.calibrate(nd.drv.sched, peers)
		for _, g := range groups {
			g.start()
		}
	})

	// The deadline is shared: a broadcast channel, not time.After, so
	// every group observes it.
	deadlineCh := make(chan struct{})
	dt := time.AfterFunc(time.Duration(cfg.DeadlineMS)*time.Millisecond, func() { close(deadlineCh) })
	defer dt.Stop()

	// Periodic live report: the /status snapshot path, one JSON line to
	// stderr per interval (operators tail it; the harness parses it).
	reportDone := make(chan struct{})
	var reporter sync.WaitGroup
	if cfg.ReportIntervalMS > 0 {
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			t := time.NewTicker(time.Duration(cfg.ReportIntervalMS) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if b, err := json.Marshal(nd.Snapshot()); err == nil {
						fmt.Fprintf(os.Stderr, "ringnetd report: %s\n", b)
					}
				case <-reportDone:
					return
				case <-nd.killed:
					return
				}
			}
		}()
	}

	// Wait for every group in turn: the daemon leaves only when all are
	// done, so the order does not matter. A finished group keeps running
	// meanwhile, serving straggler repairs and answering Done beacons.
	// Then linger, cut short by the deadline: a floor during which
	// beacons (and Done replies) keep flowing, so a peer that lost our
	// earlier beacons to the same faults we gossip about still hears one
	// before the daemon exits.
	const lingerFor = 300 * time.Millisecond
	reps := make([]GroupReport, len(groups))
	errs := make([]error, len(groups))
	killed := false
	for _, g := range groups {
		if killed = !g.wait(deadlineCh); killed {
			break
		}
	}
	if !killed {
		select {
		case <-time.After(lingerFor):
		case <-deadlineCh:
		}
		nd.drv.CallWait(func() {
			for i, g := range groups {
				reps[i], errs[i] = g.collect()
			}
		})
	}
	close(reportDone)
	reporter.Wait() // no report line is written after Run returns

	nd.drv.Stop()
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

	rep := Report{
		Node:      cfg.Node,
		Groups:    reps,
		Converged: true,
		Transport: nd.tr.Stats(),
		SendErrs:  nd.ob.SendErrs(),
		Spans:     nd.tel.tracer.Emitted(),
		WallMS:    time.Since(wallStart).Milliseconds(),
	}
	for i := range reps {
		rep.Converged = rep.Converged && reps[i].Converged
		rep.Delivered += reps[i].Delivered
		rep.ThroughputPS += reps[i].ThroughputPS
	}
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	return rep, firstErr
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
