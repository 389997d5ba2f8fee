package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// adminGet fetches one admin path, retrying connection errors briefly
// (the listener accepts before the daemon's mux is reachable only in
// inherited-fd setups, but CI machines still deserve the slack).
func adminGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	cl := &http.Client{Timeout: 2 * time.Second}
	var lastErr error
	for try := 0; try < 20; try++ {
		if try > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return resp.StatusCode, b
	}
	t.Fatalf("GET %s%s: %v", addr, path, lastErr)
	return 0, nil
}

// TestDaemonAdminEndpoints runs a two-node cluster with an admin
// listener on node 1 and exercises the whole observability surface
// live: /healthz is up from assembly, /readyz flips from 503 to 200 as
// the ring starts ordering, /metrics is lint-clean Prometheus text with
// a pinned format and every family the manifest requires, /status
// mirrors the v2 report schema mid-run, /events is well-formed NDJSON,
// and pprof answers. At exit, the report's delivered count must equal
// the registry's — the report is derived from it.
func TestDaemonAdminEndpoints(t *testing.T) {
	n := 2
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Groups: []GroupConfig{{ID: 1}},
			Node:   uint32(i + 1),
			Listen: "127.0.0.1:0",
			Seed:   uint64(2000 + i),
			// A 400 ms stream keeps the daemon serving through the
			// scrapes below: it opens as soon as both members answer a
			// clock probe, well before the start_ms ceiling.
			Count:      80,
			RateHz:     200,
			Payload:    48,
			StartMS:    250,
			DeadlineMS: 45000,
			// Sample every message key, so /trace serves a full span set.
			TraceSampleMod: 1,
		}
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, PeerAddr{Node: uint32(j + 1)})
			}
		}
		if i == 0 {
			cfg.Admin = "127.0.0.1:0"
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
	addr := nodes[0].AdminAddr()
	if addr == "" {
		t.Fatal("admin listener not bound")
	}
	if a := nodes[1].AdminAddr(); a != "" {
		t.Fatalf("node 2 has no admin config but reports address %q", a)
	}

	// Before Run: alive but not ready — no groups are assembled yet.
	if code, body := adminGet(t, addr, "/healthz"); code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz before Run: %d %q", code, body)
	}
	if code, _ := adminGet(t, addr, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Run: %d, want 503", code)
	}

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

	// Readiness must flip once the ring orders.
	readyAt := time.Now()
	for {
		code, _ := adminGet(t, addr, "/readyz")
		if code == 200 {
			break
		}
		if time.Since(readyAt) > 30*time.Second {
			t.Fatal("/readyz never flipped to 200")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// /metrics: lint-clean, pinned format, manifest-complete.
	code, body := adminGet(t, addr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := telemetry.LintExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics failed exposition lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, pin := range []string{
		"# HELP ringnet_delivered_total ",
		"# TYPE ringnet_delivered_total counter",
		`ringnet_delivered_total{group="1"} `,
		"# TYPE ringnet_lame gauge",
		"# TYPE ringnet_cross_latency_seconds histogram",
		`ringnet_cross_latency_seconds_bucket{group="1",le="+Inf"} `,
		`ringnet_nacks_total{group="1",tier="ranged"} `,
	} {
		if !strings.Contains(text, pin) {
			t.Fatalf("/metrics missing pinned line %q\n%s", pin, text)
		}
	}
	manifest, err := os.ReadFile(filepath.Join("..", "..", "ci", "metrics.manifest"))
	if err != nil {
		t.Fatalf("read metrics manifest: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(manifest))
	for sc.Scan() {
		name := strings.TrimSpace(sc.Text())
		if name == "" || strings.HasPrefix(name, "#") {
			continue
		}
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing manifest family %q", name)
		}
	}

	// /status mirrors the v2 report schema live.
	code, body = adminGet(t, addr, "/status")
	if code != 200 {
		t.Fatalf("/status: HTTP %d", code)
	}
	var live Report
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatalf("/status not a Report: %v\n%s", err, body)
	}
	if live.Node != 1 || live.ByGroup(1) == nil {
		t.Fatalf("/status wrong shape: %+v", live)
	}

	// /events: NDJSON, every line a telemetry.Event.
	code, body = adminGet(t, addr, "/events")
	if code != 200 {
		t.Fatalf("/events: HTTP %d", code)
	}
	var lastSeq uint64
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("/events line %q: %v", line, err)
		}
		lastSeq = ev.Seq
	}

	// /events?since=N: the incremental-polling contract — only events at
	// Seq >= N come back, so a scraper can resume from its high-water
	// mark instead of rereading the ring.
	code, body = adminGet(t, addr, fmt.Sprintf("/events?since=%d", lastSeq))
	if code != 200 {
		t.Fatalf("/events?since: HTTP %d", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("/events?since line %q: %v", line, err)
		}
		if ev.Seq < lastSeq {
			t.Fatalf("/events?since=%d returned earlier event %+v", lastSeq, ev)
		}
	}
	if code, _ := adminGet(t, addr, "/events?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/events?since=bogus: HTTP %d, want 400", code)
	}

	// /trace: the span dump — clock-offset header line first, then the
	// sampled lifecycle spans (everything, at trace_sample_mod 1).
	// Readiness can flip before the stream opens, and a scrape just
	// after it opens sees the first publishes before any is stamped or
	// delivered, so poll until a span of every stage checked below is in.
	var (
		hdr   TraceHeader
		spans []telemetry.Span
	)
	wantStages := []string{"publish", "stamp", "deliver"}
	traceAt := time.Now()
	for {
		code, body = adminGet(t, addr, "/trace")
		if code != 200 {
			t.Fatalf("/trace: HTTP %d", code)
		}
		var err error
		hdr, spans, err = ParseTraceDump(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("/trace: %v\n%s", err, body)
		}
		stages := map[string]bool{}
		for _, sp := range spans {
			stages[sp.Stage] = true
		}
		if !slices.ContainsFunc(wantStages, func(s string) bool { return !stages[s] }) {
			break
		}
		if time.Since(traceAt) > 30*time.Second {
			t.Fatalf("/trace never served a span of every stage in %v at trace_sample_mod 1", wantStages)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if hdr.Node != 1 {
		t.Fatalf("/trace header claims node %d, want 1", hdr.Node)
	}
	stages := map[string]bool{}
	for _, sp := range spans {
		stages[sp.Stage] = true
	}
	for _, want := range wantStages {
		if !stages[want] {
			t.Fatalf("/trace has no %q span; stages seen: %v", want, stages)
		}
	}

	if code, _ := adminGet(t, addr, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: HTTP %d", code)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	assertIdenticalOrder(t, reports)

	// Report-vs-registry equality: the exit report's counters are
	// derived from the live registry, so the two views can never drift.
	for i, nd := range nodes {
		g := reports[i].Single()
		for _, eq := range []struct {
			family string
			report uint64
		}{
			{"ringnet_delivered_total", g.Delivered},
			{"ringnet_merges_total", g.Merges},
			{"ringnet_lame_entries_total", g.LameEntries},
		} {
			got, ok := nd.tel.reg.Value(eq.family, "group", "1")
			if !ok {
				t.Fatalf("node %d: %s not in registry", i+1, eq.family)
			}
			if uint64(got) != eq.report {
				t.Fatalf("node %d: registry %s=%v, report %d", i+1, eq.family, got, eq.report)
			}
		}
	}

	// The admin listener is torn down with the daemon.
	cl := &http.Client{Timeout: time.Second}
	if _, err := cl.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("admin endpoint still serving after Run returned")
	}
}

// TestDaemonReportIntervalEmitsStatusLines pins the -report-interval
// satellite: a daemon configured with report_interval_ms must emit
// parseable live report lines to stderr while running, built from the
// same snapshot path /status serves.
func TestDaemonReportIntervalEmitsStatusLines(t *testing.T) {
	// Capture stderr across the run. The daemon writes its periodic
	// lines there; tests own the process, so swapping the fd is safe.
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() { io.Copy(&buf, r); close(done) }()

	reports := launchCluster(t, 2, func(i int, cfg *Config) {
		cfg.ReportIntervalMS = 100
	})

	os.Stderr = old
	w.Close()
	<-done
	r.Close()
	assertIdenticalOrder(t, reports)

	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "ringnetd report: ")
		if !ok {
			continue
		}
		var rep Report
		if err := json.Unmarshal([]byte(rest), &rep); err != nil {
			t.Fatalf("unparseable report line %q: %v", line, err)
		}
		if rep.ByGroup(1) == nil {
			t.Fatalf("report line missing group 1: %q", line)
		}
		lines++
	}
	if lines == 0 {
		t.Fatalf("no periodic report lines on stderr:\n%s", buf.String())
	}
	t.Logf("saw %d periodic report lines", lines)
}

// TestDaemonAdminInheritedFD pins the harness spawn path: the admin
// endpoint must serve on a listener inherited by fd number, exactly as
// members receive it from the harness parent.
func TestDaemonAdminInheritedFD(t *testing.T) {
	ln, err := newLoopbackTCPFile()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.file.Close()

	// The inherited fd is whatever number the dup landed on — the
	// config carries it verbatim; only the harness pins it to 4 via
	// ExtraFiles ordering.
	fd := int(ln.file.Fd())
	nodes := make([]*Node, 2)
	for i := 0; i < 2; i++ {
		cfg := Config{
			Groups:     []GroupConfig{{ID: 1}},
			Node:       uint32(i + 1),
			Listen:     "127.0.0.1:0",
			Seed:       uint64(3000 + i),
			Count:      40,
			RateHz:     400,
			Payload:    48,
			StartMS:    200,
			DeadlineMS: 45000,
			Peers:      []PeerAddr{{Node: uint32(2 - i)}},
		}
		if i == 0 {
			cfg.AdminFD = fd
		}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for i, nd := range nodes {
		if err := nd.SetPeerAddr(uint32(2-i), nodes[1-i].LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := nodes[0].AdminAddr(), ln.addr; got != want {
		t.Fatalf("admin bound %q, inherited listener was %q", got, want)
	}
	var wg sync.WaitGroup
	reports := make([]Report, 2)
	errs := make([]error, 2)
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			reports[i], errs[i] = nd.Run()
		}(i, nd)
	}
	if code, _ := adminGet(t, ln.addr, "/healthz"); code != 200 {
		t.Fatalf("/healthz over inherited fd: HTTP %d", code)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	assertIdenticalOrder(t, reports)
}

// tcpFile is a loopback TCP listener reduced to its dup'd file, the
// shape the harness hands children over ExtraFiles.
type tcpFile struct {
	file *os.File
	addr string
}

func newLoopbackTCPFile() (*tcpFile, error) {
	l, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	f, ferr := l.File()
	addr := l.Addr().String()
	l.Close()
	if ferr != nil {
		return nil, ferr
	}
	return &tcpFile{file: f, addr: addr}, nil
}
