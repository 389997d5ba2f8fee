package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"repro/internal/wire"
)

// metrics maps a metric name from BENCHMARK.json to its reading.
type metrics map[string]float64

// suspectMS is ringnetd's default suspect timeout, which the failover
// workload runs with: the floor under any failover stall.
const suspectMS = 900

// groupReports returns every (surviving member, group) report.
func (s *segment) groupReports() []*wire.GroupReport {
	var out []*wire.GroupReport
	for _, i := range s.survivors() {
		r := &s.members[i].Report
		for gi := range r.Groups {
			out = append(out, &r.Groups[gi])
		}
	}
	return out
}

// totals sums what the surviving members report having done.
type totals struct {
	deliveries          float64
	datagrams, wireMsgs float64
	wireBytes           float64
	ctrlMsgs, ctrlBytes float64
	dataBytes           float64
	ackPlane, nacks     float64
	heartbeats          float64
	cpuUS, maxCPUUS     float64
	latSum, latN        float64
	orderedPerS         float64
	peakRSSKB           float64
	wallS               float64 // mean member wall time
}

func (s *segment) totals() totals {
	var t totals
	alive := s.survivors()
	for _, i := range alive {
		r := &s.members[i].Report
		t.deliveries += float64(r.Delivered)
		t.orderedPerS += r.ThroughputPS
		t.wallS += float64(r.WallMS) / 1000 / float64(len(alive))
		for _, p := range r.Transport.Peers {
			t.datagrams += float64(p.SentDatagrams)
			t.wireMsgs += float64(p.SentMsgs)
			t.wireBytes += float64(p.SentBytes)
		}
		us := float64(s.cpu[i].Microseconds())
		t.cpuUS += us
		if us > t.maxCPUUS {
			t.maxCPUUS = us
		}
		if kb := float64(s.rssKB[i]); kb > t.peakRSSKB {
			t.peakRSSKB = kb
		}
	}
	for _, g := range s.groupReports() {
		c := g.Control
		t.ctrlMsgs += float64(c.ControlMsgs)
		t.ctrlBytes += float64(c.ControlBytes)
		t.dataBytes += float64(c.DataBytes)
		t.ackPlane += float64(c.AckPlane())
		t.nacks += float64(c.Nacks)
		t.heartbeats += float64(c.Heartbeats)
		t.latSum += g.CrossLatMeanMS * float64(g.CrossLatN)
		t.latN += float64(g.CrossLatN)
	}
	return t
}

// readings reads one segment's end-to-end metrics and the per-layer
// numbers an untraced run already carries, all but setup_s taken from the
// members' exit reports, CPU times and peak resident sets.
func (s *segment) readings() (e2e, layers metrics) {
	t := s.totals()
	e2e = metrics{
		"setup_s":                 s.wall.Seconds() - s.streamS,
		"ordered_per_s":           t.orderedPerS,
		"deliver_lat_mean_ms":     t.latSum / t.latN,
		"wire_bytes_per_delivery": t.wireBytes / t.deliveries,
		"ctrl_bytes_per_delivery": t.ctrlBytes / t.deliveries,
		"datagrams_per_delivery":  t.datagrams / t.deliveries,
		"mem_mb":                  t.peakRSSKB / 1024,
	}
	m := metrics{
		"cpu_us_per_delivery":             t.cpuUS / t.deliveries,
		"transport.msgs_per_datagram":     t.wireMsgs / t.datagrams,
		"transport.bytes_per_datagram":    t.wireBytes / t.datagrams,
		"core.ctrl_msgs_per_delivery":     t.ctrlMsgs / t.deliveries,
		"core.ackplane_msgs_per_delivery": t.ackPlane / t.deliveries,
		"core.nacks":                      t.nacks,
		"core.ctrl_byte_share":            t.ctrlBytes / (t.ctrlBytes + t.dataBytes),
		"core.data_bytes_per_delivery":    t.dataBytes / t.deliveries,
		"wire.cpu_imbalance":              t.maxCPUUS / (t.cpuUS / float64(len(s.survivors()))),
		"membership.heartbeats_per_s":     t.heartbeats / t.wallS,
	}
	for _, i := range s.survivors() {
		r := &s.members[i].Report
		m["outbox.send_errs"] += float64(r.SendErrs)
		m["transport.decode_errors"] += float64(r.Transport.DecodeErrors)
		for _, p := range r.Transport.Peers {
			m["transport.out_of_order"] += float64(p.OutOfOrder)
			m["transport.gaps_seen"] += float64(p.GapsSeen)
			m["transport.injected_drops"] += float64(p.InjectedDrops)
		}
	}
	var p99s, gaps, keepup []float64
	var selfLat float64
	reps := s.groupReports()
	for _, g := range reps {
		p99s = append(p99s, g.CrossLatP99MS)
		gaps = append(gaps, g.MaxGapMS)
		selfLat += g.LatencyMeanMS / float64(len(reps))
		if g.ThroughputPS > 0 {
			// The member's first-to-last delivery span against the
			// stream's nominal length: below 1, the ring fell behind its
			// open-loop sources.
			span := float64(g.Delivered-1) / g.ThroughputPS
			keepup = append(keepup, s.streamS/span)
		}
		if e := float64(g.Epoch); e > m["membership.final_epoch"] {
			m["membership.final_epoch"] = e
		}
	}
	m["wire.max_gap_ms"] = median(gaps)
	m["wire.lat_p99_ms"] = median(p99s)
	m["wire.self_lat_mean_ms"] = selfLat
	m["driver.keepup_ratio"] = median(keepup)
	if s.w.failover {
		m["membership.stall_over_suspect_ms"] = median(gaps) - suspectMS
		var logBytes float64
		for _, i := range s.survivors() {
			logBytes += dirBytes(filepath.Join(s.dir, fmt.Sprintf("data%d", i+1)))
		}
		m["store.log_bytes_per_delivery"] = logBytes / t.deliveries
	}
	return e2e, m
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n float64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // unreadable entries count as empty: this is a size estimate
		}
		if fi, err := d.Info(); err == nil {
			n += float64(fi.Size())
		}
		return nil
	})
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf folds per-segment readings into the run's: each metric's
// median over the segments that produced it.
func medianOf(runs []metrics) metrics {
	byName := make(map[string][]float64)
	for _, r := range runs {
		for k, v := range r {
			byName[k] = append(byName[k], v)
		}
	}
	out := make(metrics, len(byName))
	for k, vs := range byName {
		out[k] = median(vs)
	}
	return out
}
