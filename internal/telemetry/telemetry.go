// Package telemetry is the live observability plane: a dependency-free,
// allocation-conscious metrics registry (atomic counters, gauges,
// fixed-bucket histograms) plus a bounded structured event ring
// (ring.go) and a Prometheus text-exposition writer/linter (expo.go).
//
// The package is built for two very different callers at once. Protocol
// goroutines (drivers, socket readers, fsync timers) update instruments
// on their hot paths, so every instrument is a pointer whose methods are
// nil-receiver-safe no-ops: code instrumented against a nil *Counter
// pays one predictable branch and nothing else, which is how the
// simulator path stays byte-identical and benchmark-neutral while the
// wire daemon gets live numbers. Scrapers (the admin endpoint, the
// harness, periodic reports) read concurrently through atomics and get
// a consistent-enough snapshot without ever blocking a writer.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. The zero value is
// ready; a nil *Counter is a no-op (unattached instrumentation).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level. The zero value is ready; a nil *Gauge is a
// no-op.
type Gauge struct {
	v atomic.Int64
}

// Set assigns the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: cumulative-style buckets in
// the Prometheus sense, atomic per-bucket counts, and a float64 sum
// maintained by CAS. Observation cost is one linear bucket scan (the
// layouts below keep it under ~20 comparisons) plus two atomic ops.
// A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is retained.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets spans 10µs..10s exponentially — the layout every
// latency histogram in the tree shares (seconds units).
func LatencyBuckets() []float64 {
	return []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
		1, 2.5, 5, 10,
	}
}

// SizeBuckets spans 64B..64KB — outbox flushes and datagram sizes.
func SizeBuckets() []float64 {
	return []float64{64, 256, 1024, 4096, 16384, 49152, 65536}
}

// metricType is the exposition TYPE of one family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instrument of a family. Exactly one of the
// instrument fields is set.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	order  []string
	byKey  map[string]*series
	bounds []float64 // histogram families: shared bucket layout
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Registration (the Counter/Gauge/... constructors)
// takes a mutex and may allocate; it happens at assembly time.
// Updating a returned instrument is lock-free. A nil *Registry returns
// nil instruments from every constructor, so a whole instrumentation
// tree built against a nil registry is a no-op.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns k,v pairs into a canonical `{k="v",...}` string.
// Pairs are sorted by key so the same label set always renders — and
// therefore dedupes — identically.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key,value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, p.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup finds (creating if needed) the series for name+labels, asserts
// the family's type stays consistent, and runs init on it — all under the
// registry lock, so an instrument is published together with its series:
// a concurrent scrape or a second first-registration sees either no
// series or a complete one, never two instruments for one. It returns a
// copy taken under the same lock.
func (r *Registry) lookup(name, help string, typ metricType, labels []string, init func(f *family, s *series)) series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: key}
		f.byKey[key] = s
		f.order = append(f.order, key)
	}
	init(f, s)
	return *s
}

// Counter returns the counter named name with the given k,v label
// pairs, creating it on first use. Idempotent: the same name+labels
// always returns the same instrument.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, labels, func(_ *family, s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	}).c
}

// Gauge returns the gauge named name with the given k,v label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, labels, func(_ *family, s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (derived metrics: transport stats, queue depths). fn must be
// safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, typeGauge, labels, func(_ *family, s *series) { s.fn = fn })
}

// Histogram returns the histogram named name over bounds with the given
// k,v label pairs. All series of one family must share a layout; the
// first registration wins.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeHistogram, labels, func(f *family, s *series) {
		if f.bounds == nil {
			f.bounds = bounds
		}
		if s.h == nil {
			s.h = NewHistogram(f.bounds)
		}
	}).h
}

// Value returns the current value of the series name+labels (counters
// and gauges; histogram families answer through <name>_count), or
// ok=false when the series does not exist.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := renderLabels(labels)
	r.mu.Lock()
	var s series
	if f := r.fams[name]; f != nil {
		if p := f.byKey[key]; p != nil {
			s = *p
		}
	}
	r.mu.Unlock()
	switch {
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.fn != nil:
		return s.fn(), true
	case s.g != nil:
		return float64(s.g.Value()), true
	case s.h != nil:
		return float64(s.h.Count()), true
	}
	return 0, false
}

// WriteProm renders every registered family in Prometheus text
// exposition format (one # HELP and # TYPE header per family, series in
// registration order).
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the family structure — series by value, so a GaugeFunc
	// re-registration cannot race the render — under the lock; instrument
	// reads are atomic and happen outside it.
	r.mu.Lock()
	type famSnap struct {
		f    *family
		rows []series
	}
	fams := make([]famSnap, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		fs := famSnap{f: f, rows: make([]series, 0, len(f.order))}
		for _, key := range f.order {
			fs.rows = append(fs.rows, *f.byKey[key])
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	for _, fs := range fams {
		f := fs.f
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range fs.rows {
			var err error
			switch {
			case s.c != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.g != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.h != nil:
				err = writeHistogram(w, f.name, s.labels, s.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket rows
// with an le label, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if err := writeBucket(w, name, inner, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := writeBucket(w, name, inner, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

func writeBucket(w io.Writer, name, innerLabels, le string, cum uint64) error {
	sep := ""
	if innerLabels != "" {
		sep = ","
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, innerLabels, sep, le, cum)
	return err
}

// formatFloat renders a float the exposition parser round-trips.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
