package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Ring
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	r.Emit(Event{Type: "x"})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.Emitted() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	var nilReg *Registry
	if nilReg.Counter("x", "h") != nil || nilReg.Gauge("x", "h") != nil ||
		nilReg.Histogram("x", "h", LatencyBuckets()) != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	if err := nilReg.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
}

func TestRegistryIdempotentAndLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ringnet_test_total", "help", "group", "1", "tier", "ranged")
	b := r.Counter("ringnet_test_total", "help", "tier", "ranged", "group", "1")
	if a != b {
		t.Fatalf("same name+labels must return the same instrument regardless of pair order")
	}
	a.Add(7)
	if v, ok := r.Value("ringnet_test_total", "tier", "ranged", "group", "1"); !ok || v != 7 {
		t.Fatalf("Value = %v, %v; want 7, true", v, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	want := []uint64{2, 1, 1, 1} // le=1 gets 0.5 and 1.0; +Inf gets 500
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ringnet_delivered_total", "Messages delivered.", "group", "7").Add(42)
	r.Gauge("ringnet_lame", "Parked in a lame ring.", "group", "7").Set(1)
	r.GaugeFunc("ringnet_derived", "Scrape-time value.", func() float64 { return 2.5 })
	h := r.Histogram("ringnet_lat_seconds", "Latency.", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := buf.String()
	if err := LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, text)
	}
	m, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	checks := map[string]float64{
		`ringnet_delivered_total{group="7"}`:     42,
		`ringnet_lame{group="7"}`:                1,
		`ringnet_derived`:                        2.5,
		`ringnet_lat_seconds_bucket{le="0.001"}`: 1,
		`ringnet_lat_seconds_bucket{le="0.1"}`:   1,
		`ringnet_lat_seconds_bucket{le="+Inf"}`:  2,
		`ringnet_lat_seconds_count`:              2,
		`ringnet_lat_seconds_sum`:                5.0005,
	}
	for k, want := range checks {
		if got, ok := m[k]; !ok || got != want {
			t.Fatalf("series %s = %v, %v; want %v\n%s", k, got, ok, want, text)
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	bad := []string{
		"ringnet_x 1", // sample without TYPE
		"# TYPE ringnet_x counter\nringnet_x notnum",         // bad value
		"# TYPE ringnet_x counter\nringnet_x 1\nringnet_x 2", // duplicate
		"# TYPE 9bad counter\n9bad 1",                        // bad name
		"# TYPE ringnet_x wat\nringnet_x 1",                  // bad type
		"# TYPE ringnet_x counter\nringnet_x{le=\"oops\" 1",  // unbalanced braces
	}
	for _, text := range bad {
		if err := LintExposition(strings.NewReader(text)); err == nil {
			t.Fatalf("lint accepted malformed exposition:\n%s", text)
		}
	}
}

func TestRingBoundedAndOrdered(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Type: "t", Value: uint64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		if e.Value != uint64(6+i) || e.Seq != uint64(6+i) {
			t.Fatalf("snapshot[%d] = %+v, want value/seq %d", i, e, 6+i)
		}
	}
	if r.Emitted() != 10 {
		t.Fatalf("emitted = %d, want 10", r.Emitted())
	}
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Fatalf("NDJSON lines = %d, want 4", n)
	}
}

// TestConcurrentWritersAndScraper is the -race workhorse: protocol-side
// writers hammer counters, a histogram, and the event ring while a
// scraper loop renders, lints, and parses the registry and snapshots
// the ring. No torn values, no lint failures, and counts line up at
// the end.
func TestConcurrentWritersAndScraper(t *testing.T) {
	r := NewRegistry()
	ring := NewRing(64)
	c := r.Counter("ringnet_w_total", "writes")
	g := r.Gauge("ringnet_w_gauge", "level")
	h := r.Histogram("ringnet_w_seconds", "lat", LatencyBuckets())

	const writers = 8
	const perWriter = 2000
	var writersWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%100) * 1e-4)
				if i%50 == 0 {
					ring.Emit(Event{Type: "tick", Node: uint32(w), Value: uint64(i)})
				}
			}
		}(w)
	}
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WriteProm(&buf); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Errorf("mid-run lint: %v", err)
				return
			}
			if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Errorf("mid-run parse: %v", err)
				return
			}
			snap := ring.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq != snap[i-1].Seq+1 {
					t.Errorf("ring snapshot not contiguous: %d then %d", snap[i-1].Seq, snap[i].Seq)
					return
				}
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	scraperWG.Wait()

	if c.Value() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	if ring.Emitted() != writers*perWriter/50 {
		t.Fatalf("ring emitted = %d, want %d", ring.Emitted(), writers*perWriter/50)
	}
}

// TestRegistryConcurrentRegistration: first registrations of one series
// race each other and a scraper. Every goroutine must get the same
// instrument for the same series (none lost, so the increments add up),
// and — under -race — no instrument may be published outside the lock
// WriteProm and Value read it under.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const rounds = 200

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WriteProm(&buf); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			r.Value("ringnet_reg_total", "round", "0")
		}
	}()

	type got struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	for round := 0; round < rounds; round++ {
		label := strconv.Itoa(round)
		start := make(chan struct{})
		res := make([]got, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				own := r.Counter("ringnet_reg_own_total", "distinct", "round", label, "worker", strconv.Itoa(w))
				own.Inc()
				res[w].c = r.Counter("ringnet_reg_total", "shared", "round", label)
				res[w].c.Inc()
				res[w].g = r.Gauge("ringnet_reg_level", "shared", "round", label)
				res[w].g.Add(1)
				res[w].h = r.Histogram("ringnet_reg_seconds", "shared", LatencyBuckets(), "round", label)
				res[w].h.Observe(1e-3)
				r.GaugeFunc("ringnet_reg_fn", "shared", func() float64 { return 1 }, "round", label)
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			if res[w] != res[0] {
				t.Fatalf("round %d: worker %d got different instruments for the same series", round, w)
			}
		}
		if c, g, h := res[0].c.Value(), res[0].g.Value(), res[0].h.Count(); c != workers || g != workers || h != workers {
			t.Fatalf("round %d: lost updates: counter=%d gauge=%d histogram=%d, want %d each", round, c, g, h, workers)
		}
		for w := 0; w < workers; w++ {
			if v, ok := r.Value("ringnet_reg_own_total", "round", label, "worker", strconv.Itoa(w)); !ok || v != 1 {
				t.Fatalf("round %d: worker %d's own series reads %v (present=%v), want 1", round, w, v, ok)
			}
		}
	}
	close(stop)
	scraper.Wait()
}
