package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The traced pass reruns a wire workload with the lifecycle tracer
// sampling and a 1 Hz /metrics scrape on every member, then stitches the
// members' span dumps with the ringnet-trace binary and reads its stage
// table. End-to-end metrics are never taken from a traced run; the
// difference to the untraced run is reported as the tracing overhead.

// scrape is one /metrics fetch from one member.
type scrape struct {
	member  int
	at      time.Time
	took    time.Duration
	bytes   int
	samples map[string]float64
}

// startScraper polls every member's /metrics once a second until the
// returned stop function is called, which returns the scrapes. A fetch
// that fails (member not serving yet, or already gone) is skipped.
func startScraper(addrs []string) (stop func() []scrape) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var out []scrape
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := &http.Client{Timeout: 500 * time.Millisecond}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for i, addr := range addrs {
				if sc, err := scrapeOnce(cl, addr); err == nil {
					sc.member = i
					out = append(out, sc)
				}
			}
		}
	}()
	return func() []scrape {
		close(done)
		wg.Wait()
		return out
	}
}

func scrapeOnce(cl *http.Client, addr string) (scrape, error) {
	start := time.Now()
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return scrape{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("bench: %s/metrics: HTTP %d", addr, resp.StatusCode)
	}
	samples, err := telemetry.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return scrape{}, err
	}
	return scrape{at: start, took: took, bytes: len(body), samples: samples}, nil
}

// family sums a metric family over its label sets.
func family(samples map[string]float64, name string) float64 {
	var sum float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// scrapeMetrics reads the layer numbers only /metrics exposes. Ratios use
// each member's last scrape for both terms, so they hold even though the
// final totals are never scraped.
func scrapeMetrics(scrapes []scrape) (metrics, error) {
	first := make(map[int]*scrape)
	last := make(map[int]*scrape)
	var tookMS, sizes []float64
	for i := range scrapes {
		sc := &scrapes[i]
		if first[sc.member] == nil {
			first[sc.member] = sc
		}
		last[sc.member] = sc
		tookMS = append(tookMS, float64(sc.took.Microseconds())/1000)
		sizes = append(sizes, float64(sc.bytes))
	}
	if len(last) == 0 {
		return nil, fmt.Errorf("bench: traced pass: no /metrics scrape succeeded")
	}
	var hops, hopsPerS, delivered, regens, flushSum, flushN, overwritten float64
	for m, l := range last {
		h := family(l.samples, "ringnet_token_hops_total")
		hops += h
		delivered += family(l.samples, "ringnet_delivered_total")
		regens += family(l.samples, "ringnet_token_regens_total")
		flushSum += family(l.samples, "ringnet_outbox_flush_bytes_sum")
		flushN += family(l.samples, "ringnet_outbox_flush_bytes_count")
		overwritten += family(l.samples, "ringnet_trace_spans_overwritten_total")
		if f := first[m]; l.at.After(f.at) {
			hopsPerS += (h - family(f.samples, "ringnet_token_hops_total")) / l.at.Sub(f.at).Seconds()
		}
	}
	if overwritten > 0 {
		return nil, fmt.Errorf("bench: traced pass: %v spans overwritten; the span ring wrapped", overwritten)
	}
	m := metrics{
		"core.token_hops_per_s": hopsPerS,
		"core.token_regens":     regens,
		"admin.scrape_ms":       median(tookMS),
		"admin.scrape_bytes":    median(sizes),
	}
	if delivered > 0 {
		m["core.token_hops_per_delivery"] = hops / delivered
	}
	if flushN > 0 {
		m["outbox.flush_bytes_mean"] = flushSum / flushN
	}
	return m, nil
}

// stageRows maps ringnet-trace's stage-table row names to the metric
// stem each is reported under. These are the eight canonical transitions
// of a foreign delivery plus the end-to-end row; a run that lacks one is
// an error, not a zero.
var stageRows = map[string]string{
	"publish→outbox_enqueue":      "trace.publish_outbox",
	"outbox_enqueue→outbox_flush": "trace.outbox_flush",
	"outbox_flush→tx":             "trace.flush_tx",
	"tx→rx":                       "trace.tx_rx",
	"rx→wq_accept":                "trace.rx_wq",
	"wq_accept→stamp":             "trace.wq_stamp",
	"stamp→mq_ready":              "trace.stamp_mq",
	"mq_ready→deliver":            "trace.mq_deliver",
	"publish→deliver (e2e)":       "trace.e2e",
}

var (
	pathsRE    = regexp.MustCompile(`^ringnet-trace: (\d+) members .* (\d+) stitched paths$`)
	clockErrRE = regexp.MustCompile(`^clock-sync error bound: ±([0-9.]+) ms`)
	// A table row: name, n, then p50/p99/mean/max in ms. Names contain
	// spaces ("publish→deliver (e2e)"), so anchor on the five numbers.
	stageRowRE = regexp.MustCompile(`^(.+?)\s+(\d+)\s+(-?[0-9.]+)\s+(-?[0-9.]+)\s+(-?[0-9.]+)\s+(-?[0-9.]+)$`)
)

// parseStageTable reads ringnet-trace's report: the stitched path count,
// the clock-sync error bound, and p50/p99 of every canonical transition
// (plus the mean of the end-to-end row).
func parseStageTable(out []byte) (metrics, error) {
	m := make(metrics)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " ")
		if strings.HasPrefix(line, "top ") {
			break // the slowest-deliveries timelines follow the table
		}
		if g := pathsRE.FindStringSubmatch(line); g != nil {
			m["trace.paths"], _ = strconv.ParseFloat(g[2], 64)
			continue
		}
		if g := clockErrRE.FindStringSubmatch(line); g != nil {
			m["trace.clock_err_ms"], _ = strconv.ParseFloat(g[1], 64)
			continue
		}
		g := stageRowRE.FindStringSubmatch(line)
		if g == nil {
			continue
		}
		stem, ok := stageRows[g[1]]
		if !ok {
			continue // e.g. self-delivery's tx→stamp: not a canonical row
		}
		seen[g[1]] = true
		m[stem+"_p50_ms"], _ = strconv.ParseFloat(g[3], 64)
		m[stem+"_p99_ms"], _ = strconv.ParseFloat(g[4], 64)
		if stem == "trace.e2e" {
			m[stem+"_mean_ms"], _ = strconv.ParseFloat(g[5], 64)
		}
	}
	if _, ok := m["trace.paths"]; !ok {
		return nil, fmt.Errorf("bench: ringnet-trace output has no stitched-path header")
	}
	for row := range stageRows {
		if !seen[row] {
			return nil, fmt.Errorf("bench: ringnet-trace stage table lacks row %q", row)
		}
	}
	return m, nil
}

// traceMetrics stitches a traced segment's span dumps and reads every
// trace.* metric, failing if any member's span ring wrapped or a sampled
// message was not stitched to every surviving member.
func traceMetrics(seg *segment, ringnetTrace string) (metrics, error) {
	var dumps []string
	keys := make(map[[3]uint64]bool)
	for _, i := range seg.survivors() {
		m := &seg.members[i]
		f, err := os.Open(m.SpanPath)
		if err != nil {
			return nil, err
		}
		_, spans, err := wire.ParseTraceDump(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", m.SpanPath, err)
		}
		if uint64(len(spans)) != m.Report.Spans {
			return nil, fmt.Errorf("bench: member %d recorded %d spans but retained %d: the span ring wrapped",
				i+1, m.Report.Spans, len(spans))
		}
		for _, sp := range spans {
			if sp.Stage == telemetry.StageDeliver.String() {
				keys[[3]uint64{uint64(sp.Group), uint64(sp.Source), sp.Local}] = true
			}
		}
		dumps = append(dumps, m.SpanPath)
	}
	out, err := exec.Command(ringnetTrace, append([]string{"-top", "0"}, dumps...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("bench: ringnet-trace: %w", err)
	}
	m, err := parseStageTable(out)
	if err != nil {
		return nil, err
	}
	// On failover the dead member's dump is gone, so the messages it
	// sourced have no anchored path; everywhere else every sampled key
	// must reach every member.
	if want := float64(len(keys) * len(seg.survivors())); !seg.w.failover && m["trace.paths"] != want {
		return nil, fmt.Errorf("bench: stitched %v paths, want %d sampled keys x %d members",
			m["trace.paths"], len(keys), len(seg.survivors()))
	}
	sm, err := scrapeMetrics(seg.scrapes)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		m[k] = v
	}
	return m, nil
}
