// Package harness spawns and supervises real multi-process ringnetd
// rings on loopback UDP — the integration rig behind the cluster tests
// and the PERFORMANCE.md wire measurements.
//
// The parent binds every member's UDP socket itself, writes each member
// a JSON config naming all peers' final addresses, and passes the bound
// socket to the child as inherited file descriptor 3 — so there is no
// port race and no startup coordination protocol: a member can transmit
// the moment it starts and the kernel buffers until the peer's daemon
// attaches. Each member prints a one-line JSON wire.Report on stdout;
// the harness collects and returns them.
//
// Per-member Specs turn the rig into a chaos harness for the live
// membership plane: members can be spawned late as joiners (outside the
// bootstrap ring, soliciting the initial members as seeds), killed
// mid-run with SIGKILL (crash), or sent SIGTERM (graceful leave).
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/seq"
	"repro/internal/wire"
)

// Spec overrides one member's behavior in the cluster.
type Spec struct {
	// Join spawns this member outside the bootstrap ring: it solicits
	// the initial members (its seeds) and splices in at the granted
	// epoch — of every hosted group. Implies Live.
	Join bool
	// StartAfterMS delays the process launch (late join).
	StartAfterMS int64
	// KillAfterMS sends SIGKILL this long after the process started —
	// a crash, nothing announced.
	KillAfterMS int64
	// TermAfterMS sends SIGTERM this long after the process started —
	// the graceful-leave path.
	TermAfterMS int64
	// RestartAfterMS respawns the member this long after its original
	// start, with the same config and the same inherited socket — the
	// crash-restart path. Requires KillAfterMS (the first incarnation
	// must be dead first) with RestartAfterMS > KillAfterMS. The
	// restarted process joins as a fresh epoch member (give it a
	// DataDir to exercise durable resume) and produces the member's
	// report; the killed first incarnation's silence is expected.
	RestartAfterMS int64
	// DataDir is the member's durability root: every hosted group
	// persists its ordered delivery log and dead-letter queue under
	// DataDir/g<ID> and recovers its durable front from it on restart.
	DataDir string
	// Count overrides the member's sourced message count (every hosted
	// group inherits it): 0 inherits the cluster default, negative means
	// source nothing.
	Count int
	// Drops installs extra inbound drop rules on this member — the
	// asymmetric sibling of Options.Splits, for chaos shapes a symmetric
	// cut cannot express (e.g. every survivor drops a doomed member's
	// datagrams so its unrepaired tail becomes really lost).
	Drops []wire.DropRule
	// Groups holds per-(member, group) overrides for multi-group runs
	// (Options.Groups), keyed by group id. They take precedence over the
	// member-level fields above.
	Groups map[uint32]GroupSpec
}

// GroupSpec overrides one member's behavior within one hosted group.
type GroupSpec struct {
	// Count overrides the messages this member sources into the group:
	// 0 inherits, negative means source nothing.
	Count int
}

// Options shapes one cluster run. Command builds the member process for
// a given config path; the harness adds the inherited socket as fd 3.
type Options struct {
	Nodes      int
	Count      int     // messages sourced per member (per group)
	RateHz     float64 // per-member submission rate
	Payload    int
	Loss       float64 // injected inbound datagram loss at every member
	JitterUS   int64   // injected inbound delay bound
	Seed       uint64
	StartMS    int64
	DeadlineMS int64

	// Groups lists the ring groups every member hosts: each entry's zero
	// stream fields inherit the cluster-level Count/RateHz/Payload/
	// StartMS. Empty means one group, id 1.
	Groups []wire.GroupConfig

	// Admin serves each member's observability endpoint (/metrics,
	// /status, /events, /healthz, /readyz, pprof). The parent binds a
	// TCP listener per member and passes it as inherited fd 4 — same
	// no-port-race scheme as the UDP socket — and records the address
	// on the Member, so tests can scrape a cluster mid-run.
	Admin bool
	// ReportIntervalMS > 0 makes every member emit its live JSON report
	// line to stderr at this period.
	ReportIntervalMS int64
	// OnAdminReady, with Admin set, fires once every admin listener is
	// bound — before any member process spawns — with the addresses
	// indexed by member (0-based). Run still blocks, so mid-run scrapers
	// start their own goroutine here.
	OnAdminReady func(addrs []string)

	// Live enables the membership plane on every member. Required when
	// any Spec joins, kills, or terms.
	Live        bool
	HeartbeatMS int64
	SuspectMS   int64

	// Splits cuts the cluster along time-windowed partition lines via
	// each member's inbound drop matrix. Requires Live (a static ring
	// has no membership plane to repair the cut).
	Splits []SplitWindow

	// Trace dumps each member's delivery trace to Dir/trace<id> and
	// records the path on the Member.
	Trace bool

	// SpanSample > 0 enables the per-message lifecycle tracer on every
	// member (trace_sample_mod = SpanSample): each samples the same
	// deterministic 1/SpanSample of message keys and writes its span dump
	// to Dir/spans<id>.ndjson at exit (recorded on Member.SpanPath).
	// Mid-run the same document is live at each member's /trace endpoint.
	SpanSample int

	// Specs holds per-member overrides, keyed by 0-based member index.
	Specs map[int]Spec

	// Dir receives the generated config files (use t.TempDir).
	Dir string
	// Command builds one member process from its config path. The
	// default (nil) is only valid for callers that set it; tests re-exec
	// their own binary, manual runs use the ringnetd binary.
	Command func(cfgPath string) *exec.Cmd
}

// SplitWindow partitions the cluster for a time window: members in A
// and members in B exchange no datagrams between FromMS and UntilMS
// (milliseconds from each member's transport bind; the harness
// pre-binds every socket and spawns members together, so the clocks
// are near-aligned — size the window with heartbeat-scale margins).
// A and B hold 0-based member indexes. The cut is installed
// symmetrically as inbound drop rules on both sides.
type SplitWindow struct {
	A, B    []int
	FromMS  int64
	UntilMS int64
}

// Member is one spawned ring member and its outcome.
type Member struct {
	ID     seq.NodeID
	Report wire.Report
	Stdout string
	Stderr string
	Err    error
	Killed bool // SIGKILLed by its Spec: exit error and missing report are expected
	// AdminAddr is the member's observability endpoint (Options.Admin),
	// live for every incarnation of the member: the listener is bound by
	// the harness and inherited, so it survives kill+restart.
	AdminAddr string
	// TracePath is the delivery trace of a single-group run
	// (Options.Groups empty); TracePaths keys each hosted group's trace
	// by group id (always populated when Options.Trace is set,
	// single-group included).
	TracePath  string
	TracePaths map[uint32]string
	// SpanPath is the member's lifecycle-span dump (Options.SpanSample),
	// written at process exit. A restarted member's file holds only its
	// second incarnation's spans: the first was SIGKILLed mid-run.
	SpanPath string
}

// Group returns this member's report entry for group id, or nil — the
// (process, group)-keyed view of the cluster's reports.
func (m *Member) Group(id uint32) *wire.GroupReport { return m.Report.ByGroup(id) }

// Run launches the cluster, waits for every member (bounded by
// DeadlineMS plus slack), and returns the members with parsed reports.
// The first member error (spawn, exit status, unparsable report) is
// returned alongside the full slice; SIGKILLed members are exempt.
func Run(opts Options) ([]Member, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("harness: need at least 2 nodes")
	}
	if opts.Command == nil {
		return nil, fmt.Errorf("harness: Options.Command is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("harness: Options.Dir is required")
	}
	if opts.DeadlineMS <= 0 {
		opts.DeadlineMS = 30000
	}

	// Bind every member's socket up front; keep a dup for the child.
	n := opts.Nodes
	files := make([]*os.File, n)
	addrs := make([]string, n)
	adminFiles := make([]*os.File, n)
	adminAddrs := make([]string, n)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		for _, f := range adminFiles {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("harness: bind member %d: %w", i+1, err)
		}
		addrs[i] = c.LocalAddr().String()
		f, err := c.File()
		c.Close() // the dup keeps the binding alive
		if err != nil {
			return nil, fmt.Errorf("harness: dup member %d socket: %w", i+1, err)
		}
		files[i] = f
		if opts.Admin {
			// The admin endpoint gets the same inherited-fd treatment as
			// the UDP socket: the parent binds, so the address is known
			// before spawn, there is no port race, and the listener (its
			// kernel backlog buffering early scrapes) survives a member's
			// kill+restart.
			ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, fmt.Errorf("harness: bind member %d admin: %w", i+1, err)
			}
			adminAddrs[i] = ln.Addr().String()
			af, err := ln.File()
			ln.Close()
			if err != nil {
				return nil, fmt.Errorf("harness: dup member %d admin listener: %w", i+1, err)
			}
			adminFiles[i] = af
		}
	}

	if opts.Admin && opts.OnAdminReady != nil {
		opts.OnAdminReady(append([]string(nil), adminAddrs...))
	}

	// The bootstrap ring is every member whose Spec does not Join.
	initial := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !opts.Specs[i].Join {
			initial = append(initial, i)
		}
	}
	if len(initial) < 2 {
		return nil, fmt.Errorf("harness: need at least 2 bootstrap members")
	}

	members := make([]Member, n)
	cfgPaths := make([]string, n)
	restartPaths := make([]string, n)
	writeConfig := func(cfg wire.Config, name string) (string, error) {
		b, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return "", err
		}
		path := filepath.Join(opts.Dir, name)
		return path, os.WriteFile(path, b, 0o644)
	}
	for i := 0; i < n; i++ {
		if opts.Admin {
			members[i].AdminAddr = adminAddrs[i]
		}
		cfg, err := memberConfig(opts, i, initial, addrs, &members[i])
		if err != nil {
			return nil, err
		}
		if cfgPaths[i], err = writeConfig(cfg, fmt.Sprintf("node%d.json", i+1)); err != nil {
			return nil, err
		}
		if opts.Specs[i].RestartAfterMS > 0 {
			if restartPaths[i], err = writeConfig(restartConfig(cfg), fmt.Sprintf("node%d.restart.json", i+1)); err != nil {
				return nil, err
			}
		}
	}

	procs := make([]*proc, n)
	waitErr := make([]chan error, n)
	// doom fires when any member fails to start: the cluster cannot
	// succeed, so every started member is killed instead of burning the
	// whole deadline (and masking the start error with timeouts).
	doom := make(chan struct{})
	var doomOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		members[i].ID = seq.NodeID(i + 1)
		spec := opts.Specs[i]
		cmd := opts.Command(cfgPaths[i])
		f := files[i]
		files[i] = nil // the spawner goroutine owns it now
		af := adminFiles[i]
		adminFiles[i] = nil
		var restartF, restartAF *os.File
		if spec.RestartAfterMS > 0 {
			// Keep a second dup of the bound socket for the restarted
			// incarnation: the binding must survive the first process's
			// death or the respawn would race other tests for the port.
			rf, err := dupFile(f)
			if err != nil {
				return nil, fmt.Errorf("harness: dup member %d restart socket: %w", i+1, err)
			}
			restartF = rf
			if af != nil {
				raf, err := dupFile(af)
				if err != nil {
					return nil, fmt.Errorf("harness: dup member %d restart admin listener: %w", i+1, err)
				}
				restartAF = raf
			}
		}
		cmd.ExtraFiles = []*os.File{f}
		if af != nil {
			cmd.ExtraFiles = append(cmd.ExtraFiles, af) // fd 4: AdminFD
		}
		var out, errb bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &errb
		p := &proc{out: &out, err: &errb, started: make(chan struct{})}
		p.cur = cmd
		procs[i] = p
		ch := make(chan error, 1)
		waitErr[i] = ch
		if spec.KillAfterMS > 0 && spec.RestartAfterMS == 0 {
			members[i].Killed = true
		}
		wg.Add(1)
		go func(i int, spec Spec, cmd *exec.Cmd, f, af, restartF, restartAF *os.File, p *proc, ch chan error) {
			defer wg.Done()
			if spec.StartAfterMS > 0 {
				time.Sleep(time.Duration(spec.StartAfterMS) * time.Millisecond)
			}
			start0 := time.Now()
			err := cmd.Start()
			close(p.started)
			if err != nil {
				f.Close()
				if af != nil {
					af.Close()
				}
				if restartF != nil {
					restartF.Close()
				}
				if restartAF != nil {
					restartAF.Close()
				}
				ch <- fmt.Errorf("harness: start member %d: %w", i+1, err)
				doomOnce.Do(func() { close(doom) })
				return
			}
			f.Close() // the child holds its own dup now
			if af != nil {
				af.Close()
			}
			if spec.KillAfterMS > 0 {
				time.AfterFunc(time.Duration(spec.KillAfterMS)*time.Millisecond, func() {
					cmd.Process.Kill()
				})
			}
			if spec.TermAfterMS > 0 {
				time.AfterFunc(time.Duration(spec.TermAfterMS)*time.Millisecond, func() {
					cmd.Process.Signal(syscall.SIGTERM)
				})
			}
			werr := cmd.Wait()
			if restartF == nil {
				ch <- werr
				return
			}
			// Crash-restart: the first incarnation died by our SIGKILL
			// (its exit error is expected); respawn at the scheduled
			// offset with the join-mode restart config and the kept
			// socket dup. The member's report comes from this one.
			if d := time.Until(start0.Add(time.Duration(spec.RestartAfterMS) * time.Millisecond)); d > 0 {
				time.Sleep(d)
			}
			cmd2 := opts.Command(restartPaths[i])
			cmd2.ExtraFiles = []*os.File{restartF}
			if restartAF != nil {
				cmd2.ExtraFiles = append(cmd2.ExtraFiles, restartAF)
			}
			cmd2.Stdout = p.out
			cmd2.Stderr = p.err
			ok, err := p.adoptStart(cmd2)
			restartF.Close()
			if restartAF != nil {
				restartAF.Close()
			}
			switch {
			case !ok:
				ch <- fmt.Errorf("harness: member %d killed before its restart", i+1)
				return
			case err != nil:
				ch <- fmt.Errorf("harness: restart member %d: %w", i+1, err)
				doomOnce.Do(func() { close(doom) })
				return
			}
			ch <- cmd2.Wait()
		}(i, spec, cmd, f, af, restartF, restartAF, p, ch)
	}

	// Join all members, bounded by the run deadline plus startup delays
	// and teardown slack. A restarted member's deadline clock begins at
	// its respawn, so the restart offset is slack too.
	var maxDelay int64
	for _, s := range opts.Specs {
		if s.StartAfterMS > maxDelay {
			maxDelay = s.StartAfterMS
		}
		if s.RestartAfterMS > maxDelay {
			maxDelay = s.RestartAfterMS
		}
	}
	limit := time.Duration(opts.DeadlineMS+maxDelay)*time.Millisecond + 15*time.Second
	deadline := time.Now().Add(limit)
	go func() {
		<-doom
		for j := range procs {
			j := j
			go func() {
				<-procs[j].started
				procs[j].kill() // no-op error on already-exited members
			}()
		}
	}()
	defer doomOnce.Do(func() { close(doom) }) // release the supervisor
	var firstErr error
	for i := range procs {
		// Fresh timer per member against one shared deadline: once it
		// passes, every remaining straggler is killed (a one-shot
		// time.After channel would fire for the first hung member only
		// and block forever on the second).
		tm := time.NewTimer(time.Until(deadline))
		select {
		case err := <-waitErr[i]:
			members[i].Err = err
		case <-tm.C:
			// Wait for the spawner to finish Start before touching the
			// process handle (bounded by StartAfterMS, already inside
			// the limit): an unsynchronized read would race cmd.Start.
			<-procs[i].started
			procs[i].kill()
			members[i].Err = fmt.Errorf("harness: member %d exceeded %v; killed", i+1, limit)
			<-waitErr[i]
		}
		tm.Stop()
		members[i].Stdout = procs[i].out.String()
		members[i].Stderr = procs[i].err.String()
		if rep, err := parseReport(members[i].Stdout); err == nil {
			members[i].Report = rep
		} else if members[i].Err == nil && !members[i].Killed {
			members[i].Err = err
		}
		if members[i].Err != nil && !members[i].Killed && firstErr == nil {
			firstErr = fmt.Errorf("member %d: %w (stderr: %s)", i+1, members[i].Err,
				strings.TrimSpace(members[i].Stderr))
		}
	}
	wg.Wait()
	return members, firstErr
}

// memberConfig builds the daemon config of member i (0-based) and
// records on m the trace and span paths the config names. initial lists
// the bootstrap members' indexes, addrs every member's bound socket
// address.
func memberConfig(opts Options, i int, initial []int, addrs []string, m *Member) (wire.Config, error) {
	spec := opts.Specs[i]
	if spec.Join && !opts.Live {
		return wire.Config{}, fmt.Errorf("harness: member %d joins but Options.Live is off", i+1)
	}
	if spec.RestartAfterMS > 0 {
		switch {
		case !opts.Live:
			return wire.Config{}, fmt.Errorf("harness: member %d restarts but Options.Live is off", i+1)
		case spec.KillAfterMS <= 0:
			return wire.Config{}, fmt.Errorf("harness: member %d: RestartAfterMS requires KillAfterMS (the first incarnation must die first)", i+1)
		case spec.RestartAfterMS <= spec.KillAfterMS:
			return wire.Config{}, fmt.Errorf("harness: member %d: RestartAfterMS (%d) must exceed KillAfterMS (%d)", i+1, spec.RestartAfterMS, spec.KillAfterMS)
		}
	}
	cfg := wire.Config{
		Node:             uint32(i + 1),
		ListenFD:         3,
		Live:             opts.Live,
		HeartbeatMS:      opts.HeartbeatMS,
		SuspectMS:        opts.SuspectMS,
		Seed:             opts.Seed + uint64(i)*7919,
		Loss:             opts.Loss,
		JitterUS:         opts.JitterUS,
		Count:            opts.Count,
		RateHz:           opts.RateHz,
		Payload:          opts.Payload,
		StartMS:          opts.StartMS,
		DeadlineMS:       opts.DeadlineMS,
		ReportIntervalMS: opts.ReportIntervalMS,
		DataDir:          spec.DataDir,
	}
	if opts.Admin {
		cfg.AdminFD = 4 // ExtraFiles[1]
	}
	if spec.Count > 0 {
		cfg.Count = spec.Count
	} else if spec.Count < 0 {
		cfg.Count = 0
	}
	// One entry per hosted group, with per-(member, group) overrides
	// folded in. Group fields left zero inherit the daemon-level stream
	// defaults above. A single-group cluster hosts group 1 and keeps the
	// trace file name without a group suffix.
	single := len(opts.Groups) == 0
	if single {
		cfg.Groups = []wire.GroupConfig{{ID: 1}}
	} else {
		cfg.Groups = append([]wire.GroupConfig(nil), opts.Groups...)
	}
	if opts.Trace {
		m.TracePaths = make(map[uint32]string)
	}
	for gi := range cfg.Groups {
		g := &cfg.Groups[gi]
		g.Join = g.Join || spec.Join
		if ov := spec.Groups[g.ID]; ov.Count != 0 {
			g.Count = ov.Count
		}
		if opts.Trace {
			g.TracePath = filepath.Join(opts.Dir, fmt.Sprintf("trace%d_g%d", i+1, g.ID))
			if single {
				g.TracePath = filepath.Join(opts.Dir, fmt.Sprintf("trace%d", i+1))
				m.TracePath = g.TracePath
			}
			m.TracePaths[g.ID] = g.TracePath
		}
	}
	cfg.DropRules = append(cfg.DropRules, spec.Drops...)
	for _, sw := range opts.Splits {
		if !opts.Live {
			return wire.Config{}, fmt.Errorf("harness: Splits require Options.Live")
		}
		var far []int
		if containsIndex(sw.A, i) {
			far = sw.B
		} else if containsIndex(sw.B, i) {
			far = sw.A
		}
		for _, j := range far {
			cfg.DropRules = append(cfg.DropRules, wire.DropRule{
				From: uint32(j + 1), FromMS: sw.FromMS, UntilMS: sw.UntilMS, Prob: 1,
			})
		}
	}
	if opts.SpanSample > 0 {
		cfg.TraceSampleMod = opts.SpanSample
		m.SpanPath = filepath.Join(opts.Dir, fmt.Sprintf("spans%d.ndjson", i+1))
		cfg.SpanPath = m.SpanPath
	}
	// A bootstrap member's peers are the other bootstrap members; a
	// joiner's peers are its seeds — the whole bootstrap ring.
	for _, j := range initial {
		if j != i {
			cfg.Peers = append(cfg.Peers, wire.PeerAddr{Node: uint32(j + 1), Addr: addrs[j]})
		}
	}
	return cfg, nil
}

// restartConfig derives a killed member's second-incarnation config: it
// rejoins the running ring in join mode (its bootstrap peers are the
// seeds) and sources nothing — its local-sequence space was consumed by
// the killed incarnation and is not recovered, so re-sourcing would
// collide with the peers' high-water marks. Same DataDir, so it recovers
// the durable front and asks to resume there; same TracePath — the
// recovered prefix is replayed into the fresh trace, so the final file
// is the full stream, not just the second incarnation's suffix.
func restartConfig(cfg wire.Config) wire.Config {
	gs := append([]wire.GroupConfig(nil), cfg.Groups...)
	for gi := range gs {
		gs[gi].Join = true
		gs[gi].Count = -1
	}
	cfg.Groups = gs
	return cfg
}

// proc supervises one member slot across its incarnations: cur is the
// slot's live process (the restart path swaps it), and a kill — doom,
// shared deadline — marks the slot doomed so a not-yet-spawned restart
// aborts instead of outliving the run.
type proc struct {
	out, err *bytes.Buffer
	started  chan struct{} // closed once the FIRST cmd.Start returned (ok or not)

	mu     sync.Mutex
	cur    *exec.Cmd
	doomed bool
}

// adoptStart starts and installs the next incarnation under the slot
// lock, so a concurrent kill either precedes the spawn (ok=false,
// nothing started) or sees the new process and kills it — a restart
// can never slip through a closing deadline and outlive the run.
func (p *proc) adoptStart(c *exec.Cmd) (ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.doomed {
		return false, nil
	}
	if err := c.Start(); err != nil {
		return true, err
	}
	p.cur = c
	return true, nil
}

// kill dooms the slot and kills its live incarnation, if any.
func (p *proc) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doomed = true
	if p.cur != nil && p.cur.Process != nil {
		p.cur.Process.Kill()
	}
}

// dupFile duplicates an inheritable file descriptor (the socket dup a
// restarted member will receive as fd 3).
func dupFile(f *os.File) (*os.File, error) {
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	syscall.CloseOnExec(fd)
	return os.NewFile(uintptr(fd), f.Name()), nil
}

func containsIndex(s []int, i int) bool {
	for _, v := range s {
		if v == i {
			return true
		}
	}
	return false
}

// parseReport extracts the last JSON report line from a member's stdout.
func parseReport(out string) (wire.Report, error) {
	var rep wire.Report
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		l := strings.TrimSpace(lines[i])
		if l == "" || l[0] != '{' {
			continue
		}
		if err := json.Unmarshal([]byte(l), &rep); err == nil {
			return rep, nil
		}
	}
	return rep, fmt.Errorf("harness: no JSON report on stdout (%d bytes)", len(out))
}
