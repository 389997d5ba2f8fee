package harness

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// memberWatch accumulates one member's mid-run observations. The
// scraper goroutine writes, the test asserts after the cluster exits;
// mu covers the handoff.
type memberWatch struct {
	mu sync.Mutex

	scrapes  int    // successful /metrics fetches
	lintErr  string // first malformed exposition, if any
	monoErr  string // first delivered-counter regression, if any
	lastDlvd float64

	lameSeen    bool // ringnet_lame hit 1
	lameCleared bool // ...and returned to 0 afterwards

	readySeen      bool // /readyz answered 200
	notReadyAfter  bool // ...then 503 (the fault window)
	readyRecovered bool // ...then 200 again (the heal)

	events map[string]int // event type → count, from the latest /events

	traceScrapes int // successful /trace fetches
	traceSpans   int // span count in the latest /trace document
}

// pollOnce is the single-attempt sibling of the package fetch helper:
// the chaos scraper must keep its cadence while a member is dead (its
// inherited listener backlogs connects until the restart serves them),
// so each poll gets one bounded attempt and errors are simply skipped.
func pollOnce(cl *http.Client, addr, path string) (*http.Response, bool) {
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return nil, false
	}
	return resp, true
}

func (w *memberWatch) observe(cl *http.Client, addr string, restarts bool) {
	if resp, ok := pollOnce(cl, addr, "/readyz"); ok {
		resp.Body.Close()
		w.mu.Lock()
		switch {
		case resp.StatusCode == http.StatusOK && !w.readySeen:
			w.readySeen = true
		case resp.StatusCode != http.StatusOK && w.readySeen:
			w.notReadyAfter = true
		case resp.StatusCode == http.StatusOK && w.notReadyAfter:
			w.readyRecovered = true
		}
		w.mu.Unlock()
	}
	if samples, err := ScrapeMetricsOnce(cl, addr); err == nil {
		w.mu.Lock()
		w.scrapes++
		lame := samples[`ringnet_lame{group="1"}`]
		if lame >= 1 {
			w.lameSeen = true
		} else if w.lameSeen {
			w.lameCleared = true
		}
		dlvd := samples[`ringnet_delivered_total{group="1"}`]
		// A restarting member's registry resets with its second
		// incarnation, so monotonicity only binds steady members.
		if !restarts && dlvd < w.lastDlvd && w.monoErr == "" {
			w.monoErr = "delivered counter went backwards"
		}
		w.lastDlvd = dlvd
		w.mu.Unlock()
	} else if strings.Contains(err.Error(), "malformed") {
		w.mu.Lock()
		if w.lintErr == "" {
			w.lintErr = err.Error()
		}
		w.mu.Unlock()
	}
	if resp, ok := pollOnce(cl, addr, "/events"); ok {
		evs, err := decodeEvents(resp)
		if err == nil {
			byType := map[string]int{}
			for _, ev := range evs {
				byType[ev.Type]++
				if ev.Type == "token-resync" {
					byType[ev.Type+"/"+ev.Detail]++ // by reason
				}
			}
			w.mu.Lock()
			w.events = byType
			w.mu.Unlock()
		}
	}
	if resp, ok := pollOnce(cl, addr, "/trace"); ok {
		_, spans, err := wire.ParseTraceDump(resp.Body)
		resp.Body.Close()
		if err == nil {
			w.mu.Lock()
			w.traceScrapes++
			w.traceSpans = len(spans)
			w.mu.Unlock()
		}
	}
}

// ScrapeMetricsOnce is ScrapeMetrics without the connection retries,
// sharing the caller's bounded client.
func ScrapeMetricsOnce(cl *http.Client, addr string) (map[string]float64, error) {
	resp, ok := pollOnce(cl, addr, "/metrics")
	if !ok {
		return nil, errUnreachable
	}
	return decodeMetrics(resp)
}

// TestClusterObservabilityUnderChaos is the acceptance test for the
// telemetry plane: a 5-process cluster suffers a crash (member 5
// SIGKILLed at 2.5s), a durable restart (member 5 back at 8s, resuming
// from its on-disk log), and then a partition (member 4 cut into a
// singleton minority 9s–13.5s) — and the whole sequence must be
// observable LIVE through the admin endpoints, not just in exit
// reports. The faults are sequential, not overlapping: the eviction and
// resume handshake must settle before the cut lands, so each fault's
// telemetry signature is unambiguous. A scraper
// goroutine per member polls /metrics, /events, and /readyz throughout:
// every exposition must lint clean, the minority member's lame gauge
// must rise and clear, its /readyz must flip 200→503→200, delivered
// counters must never regress on steady members, and the event rings
// must carry the full fault narrative (suspect, evict, epoch-commit,
// lame-enter/exit, merge-heal, resume, and the token resyncs the ring
// repairs cause). At exit, each steady member's
// registry-derived delivered count must equal its trace line count.
// The lifecycle trace plane rides along at sampling mod 8: /trace must
// serve spans mid-run, and at exit every delivered sampled key must
// have a publish span in its source member's dump and a deliver span in
// the delivering member's dump — both ends of the stitched path.
func TestClusterObservabilityUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("5-process chaos cluster in -short")
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "node5-data")

	watches := make([]*memberWatch, 5)
	for i := range watches {
		watches[i] = &memberWatch{}
	}
	scrapeDone := make(chan struct{})
	var scrapers sync.WaitGroup

	// Sizing: majors source 250 @ 18/s for 13.8 s from the stream's
	// opening (once every peer answers a clock probe, 0.5 s after launch
	// at the latest), so the stream is still flowing across the restart
	// join (~8s) and the heal (13.5s) — nobody latches Done before the
	// last member is back. The minority
	// and the doomed member source 25 each, finished long before their
	// faults. 3×250 + 2×25 = 800 globals, inside the token's 1024-slot
	// CompactKeep window, so the healed minority and the resumed member
	// can still repair everything they missed.
	members, err := Run(Options{
		Nodes:            5,
		Count:            250,
		RateHz:           18,
		Payload:          48,
		Seed:             47,
		StartMS:          500,
		DeadlineMS:       90000,
		Live:             true,
		HeartbeatMS:      100,
		SuspectMS:        2500,
		LameMS:           1500,
		IdleMS:           2500,
		Trace:            true,
		SpanSample:       8,
		Admin:            true,
		ReportIntervalMS: 500,
		Splits: []SplitWindow{
			// Member 5 rides with the majority so the cut isolates
			// member 4 completely — no accidental bridge — and lands
			// only after member 5's eviction + resume rejoin settled.
			{A: []int{0, 1, 2, 4}, B: []int{3}, FromMS: 9000, UntilMS: 13500},
		},
		Specs: map[int]Spec{
			3: {Count: 25},
			4: {Count: 25, KillAfterMS: 2500, RestartAfterMS: 8000, DataDir: dataDir},
		},
		OnAdminReady: func(addrs []string) {
			for i, addr := range addrs {
				scrapers.Add(1)
				go func(i int, addr string) {
					defer scrapers.Done()
					cl := &http.Client{Timeout: time.Second}
					for {
						select {
						case <-scrapeDone:
							return
						case <-time.After(300 * time.Millisecond):
						}
						watches[i].observe(cl, addr, i == 4)
					}
				}(i, addr)
			}
		},
		Dir:     dir,
		Command: selfExec(t),
	})
	close(scrapeDone)
	scrapers.Wait()
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}

	// Exit-report layer: everyone converged on one order.
	for _, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: %+v\nstderr: %s", m.ID, r, m.Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("member %v order violation: %s", m.ID, r.Single().OrderErr)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("order diverged: member %v hash %s, member %v hash %s",
				m.ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
	}
	if members[3].Report.Single().LameEntries == 0 {
		t.Fatalf("minority member never entered the lame ring: %+v", members[3].Report.Single())
	}
	if members[4].Report.Single().ResumedAt == 0 {
		t.Fatalf("restarted member joined fresh, not via resume: %+v\nstderr: %s",
			members[4].Report.Single(), members[4].Stderr)
	}

	// Live layer: the scrapers must have watched the faults happen.
	for i, w := range watches {
		w.mu.Lock()
		if w.scrapes == 0 {
			t.Errorf("member %d was never scraped successfully", i+1)
		}
		if w.lintErr != "" {
			t.Errorf("member %d served a malformed exposition mid-run: %s", i+1, w.lintErr)
		}
		if w.monoErr != "" {
			t.Errorf("member %d: %s", i+1, w.monoErr)
		}
		w.mu.Unlock()
	}
	w3 := watches[3]
	w3.mu.Lock()
	if !w3.lameSeen || !w3.lameCleared {
		t.Errorf("minority member's lame gauge never rose and cleared live (seen=%v cleared=%v)",
			w3.lameSeen, w3.lameCleared)
	}
	if !w3.readySeen || !w3.notReadyAfter || !w3.readyRecovered {
		t.Errorf("minority member's /readyz never flipped 200→503→200 (ready=%v notReady=%v recovered=%v)",
			w3.readySeen, w3.notReadyAfter, w3.readyRecovered)
	}
	w3.mu.Unlock()

	// Event narrative: the union of the latest-scraped rings must tell
	// the whole fault story.
	union := map[string]int{}
	for _, w := range watches {
		w.mu.Lock()
		for typ, n := range w.events {
			union[typ] += n
		}
		w.mu.Unlock()
	}
	for _, typ := range []string{
		"suspect", "evict", "epoch-commit",
		"lame-enter", "lame-exit", "merge-heal", "resume",
	} {
		if union[typ] == 0 {
			t.Errorf("no member's event ring carried a %q event; union: %v", typ, union)
		}
	}
	// The token's history reached the members the faults re-linked: a
	// ring repaired around the corpse, or a token regenerated at a new
	// epoch, sends its next hop whole.
	if union["token-resync/successor"]+union["token-resync/epoch"] == 0 {
		t.Errorf("no member resynchronised a successor's token history across the faults; union: %v", union)
	}

	// Registry-vs-trace equality: the exit report's delivered counter is
	// registry-derived, and for every member that never restarted it
	// must equal the trace line count exactly — one Inc per trace line.
	// The restarted member's trace additionally holds the prefix its
	// first incarnation delivered, so it is exempt.
	for i := 0; i < 4; i++ {
		lines := readTrace(t, members[i].TracePath)
		if got := members[i].Report.Single().Delivered; got != uint64(len(lines)) {
			t.Errorf("member %d: registry delivered %d, trace has %d lines", i+1, got, len(lines))
		}
	}

	// The -report-interval satellite: every member was asked to narrate
	// to stderr at 500ms; the steady members must have done so.
	for i := 0; i < 3; i++ {
		if !strings.Contains(members[i].Stderr, "ringnetd report: ") {
			t.Errorf("member %d stderr has no periodic report lines:\n%s", i+1, members[i].Stderr)
		}
	}

	// Trace-plane layer: the lifecycle tracer sampled 1/8 of message keys
	// on every member, live at /trace mid-run and dumped to SpanPath at
	// exit. Span completeness: every delivered sampled key must show a
	// publish span in its SOURCE member's dump and a deliver span in the
	// delivering member's dump — the two ends of the stitched critical
	// path. Member 5's first incarnation was SIGKILLed and its restart
	// truncated the dump, so keys sourced by 5 are exempt from the
	// source-side half, and member 5's own dump is not consulted.
	dumps := make([]map[string]map[string]bool, 4) // member → stage → "src/local" seen
	for i := 0; i < 4; i++ {
		f, err := os.Open(members[i].SpanPath)
		if err != nil {
			t.Fatalf("member %d span dump: %v", i+1, err)
		}
		hdr, spans, err := wire.ParseTraceDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("member %d span dump: %v", i+1, err)
		}
		if hdr.Node != uint32(i+1) {
			t.Fatalf("member %d span dump header claims node %d", i+1, hdr.Node)
		}
		byStage := map[string]map[string]bool{}
		for _, sp := range spans {
			if byStage[sp.Stage] == nil {
				byStage[sp.Stage] = map[string]bool{}
			}
			byStage[sp.Stage][fmt.Sprintf("%d/%d", sp.Source, sp.Local)] = true
		}
		dumps[i] = byStage
		if members[i].Report.Spans == 0 {
			t.Errorf("member %d exit report counts no spans", i+1)
		}
	}
	sampledDelivered := 0
	for _, line := range readTrace(t, members[0].TracePath) {
		var global, src uint32
		var local uint64
		if _, err := fmt.Sscanf(line, "%d %d %d", &global, &src, &local); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if !telemetry.SampledKey(8, 1, src, local) {
			continue
		}
		sampledDelivered++
		key := fmt.Sprintf("%d/%d", src, local)
		if !dumps[0]["deliver"][key] {
			t.Errorf("member 1 delivered sampled key %s but its span dump has no deliver span", key)
		}
		if src >= 1 && src <= 4 && !dumps[src-1]["publish"][key] {
			t.Errorf("sampled key %s has no publish span in source member %d's dump", key, src)
		}
	}
	if sampledDelivered == 0 {
		t.Error("no delivered message keys were sampled at mod 8")
	}
	for i := 0; i < 4; i++ {
		w := watches[i]
		w.mu.Lock()
		if w.traceScrapes == 0 || w.traceSpans == 0 {
			t.Errorf("member %d: /trace never served spans mid-run (scrapes=%d spans=%d)",
				i+1, w.traceScrapes, w.traceSpans)
		}
		w.mu.Unlock()
	}

	t.Logf("observability chaos: %d/%d/%d/%d/%d scrapes per member, %d sampled delivered keys, event union %v",
		watches[0].scrapes, watches[1].scrapes, watches[2].scrapes, watches[3].scrapes, watches[4].scrapes,
		sampledDelivered, union)
}
