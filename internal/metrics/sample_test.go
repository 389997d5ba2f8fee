package metrics

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"
)

// exactSample is the exact, sort-based Sample that the histogram
// replaced, kept as the reference: it holds every observation.
type exactSample struct {
	vals   []float64
	sorted bool
	sum    float64
	min    float64
	max    float64
}

func (s *exactSample) Add(v float64) {
	if len(s.vals) == 0 || v < s.min {
		s.min = v
	}
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

func (s *exactSample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

func (s *exactSample) Quantile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 1 {
		return s.vals[n-1]
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.vals[idx]
}

// quantileGrid is the p grid every comparison walks: the tails, the
// usual report points and a uniform grid.
var quantileGrid = func() []float64 {
	ps := []float64{0, 1e-6, 0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1 - 1e-6, 1}
	for i := 1; i < 100; i++ {
		ps = append(ps, float64(i)/100)
	}
	sort.Float64s(ps)
	return ps
}()

// inBucketedRange reports whether Quantile promises alpha for exact
// value v.
func inBucketedRange(v float64) bool {
	a := math.Abs(v)
	return a == 0 || (a >= 0x1p-32 && a < 0x1p32)
}

// checkSample feeds vals to a Sample and to the exact reference and
// checks the contract: N, Mean, Min and Max bit-identical; every
// quantile on the grid in [Min, Max], monotone in p, exact at p = 0 and
// p = 1, and within alpha of the exact nearest-rank value when that value
// is zero or its magnitude is in the bucketed range.
func checkSample(t *testing.T, name string, vals []float64) {
	t.Helper()
	var s Sample
	var ref exactSample
	for _, v := range vals {
		s.Add(v)
		ref.Add(v)
	}
	if s.N() != len(ref.vals) {
		t.Fatalf("%s: N = %d, want %d", name, s.N(), len(ref.vals))
	}
	if s.N() == 0 {
		return
	}
	bits := math.Float64bits
	if bits(s.Mean()) != bits(ref.Mean()) || bits(s.Min()) != bits(ref.min) || bits(s.Max()) != bits(ref.max) {
		t.Fatalf("%s: mean/min/max %v/%v/%v, want %v/%v/%v", name, s.Mean(), s.Min(), s.Max(), ref.Mean(), ref.min, ref.max)
	}
	prev := math.Inf(-1)
	for _, p := range quantileGrid {
		q, want := s.Quantile(p), ref.Quantile(p)
		if q < s.Min() || q > s.Max() {
			t.Fatalf("%s: Quantile(%v) = %v outside [%v, %v]", name, p, q, s.Min(), s.Max())
		}
		if q < prev {
			t.Fatalf("%s: Quantile(%v) = %v below a lower p's %v", name, p, q, prev)
		}
		prev = q
		if (p == 0 || p == 1) && q != want {
			t.Fatalf("%s: Quantile(%v) = %v, want exact %v", name, p, q, want)
		}
		if inBucketedRange(want) && math.Abs(q-want) > alpha*math.Abs(want) {
			t.Fatalf("%s: Quantile(%v) = %v, exact %v: relative error %.3g > %.3g",
				name, p, q, want, math.Abs(q-want)/math.Abs(want), alpha)
		}
	}
}

func TestSampleMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	dists := []struct {
		name string
		gen  func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() }},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64() - 4) }},
		// sim_mobile's latencies: whole microseconds between 8.6 and
		// 27.3 ms, with many ties.
		{"quantized-ms", func() float64 { return float64(8600+rng.IntN(18700)) / 1e6 }},
		{"coarse-ms", func() float64 { return float64(9+rng.IntN(4)) / 1e3 }},
		{"zeros", func() float64 {
			if rng.IntN(3) == 0 {
				return rng.Float64()
			}
			return 0
		}},
		{"negatives", func() float64 { return rng.NormFloat64() }},
		{"octaves", func() float64 {
			v := math.Ldexp(1+rng.Float64(), rng.IntN(60)-30)
			if rng.IntN(2) == 0 {
				v = -v
			}
			return v
		}},
	}
	for _, d := range dists {
		for _, n := range []int{1, 2, 7, 100, 10000} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = d.gen()
			}
			checkSample(t, d.name, vals)
		}
	}
}

// fuzzValues decodes a fuzz input three bytes per observation: the first
// byte's low bit is the sign and the rest picks a binary exponent in
// [-40, 87), reaching past both ends of the bucketed range (0 is a zero
// observation); the other two are the top mantissa bits.
func fuzzValues(in []byte) []float64 {
	var vals []float64
	for ; len(in) >= 3; in = in[3:] {
		if in[0] == 0 {
			vals = append(vals, 0)
			continue
		}
		v := math.Ldexp(1+float64(binary.BigEndian.Uint16(in[1:]))/(1<<16), int(in[0]>>1)-40)
		if in[0]&1 == 1 {
			v = -v
		}
		vals = append(vals, v)
	}
	return vals
}

// FuzzSample checks the Sample contract (see checkSample) against the
// exact reference on arbitrary observation streams.
func FuzzSample(f *testing.F) {
	f.Add([]byte{80, 0, 0, 80, 128, 0, 81, 0, 1})
	f.Add([]byte{0, 0, 0, 60, 255, 255, 2, 0, 0, 250, 1, 1, 255, 255, 255})
	f.Add([]byte{64, 0, 0, 64, 0, 0, 64, 0, 0, 65, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		checkSample(t, "fuzz", fuzzValues(in))
	})
}

// allocated returns the bytes f allocates, by TotalAlloc delta. It takes
// the least of three runs: TotalAlloc counts the whole process, and the
// runtime or the test framework occasionally allocates alongside.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSampleMemoryBounded: a million observations over three decades
// allocate, in total, about a kilobyte per octave they span.
func TestSampleMemoryBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2))
	d := allocated(func() {
		s := new(Sample)
		for i := 0; i < 1_000_000; i++ {
			s.Add(math.Pow(10, -3+3*rng.Float64())) // log-uniform over [1 ms, 1 s]
		}
		runtime.KeepAlive(s)
	})
	t.Logf("10^6 observations in [1 ms, 1 s]: %d B allocated", d)
	if d > 16<<10 {
		t.Fatalf("Sample allocated %d B for 10^6 observations in [1 ms, 1 s], want ≤ 16 KB", d)
	}
}

// TestSampleWorstCaseMemory: observations over every octave of the
// bucketed range, and past both ends, allocate 64 pages per sign and
// their index, no more than the stated worst case.
func TestSampleWorstCaseMemory(t *testing.T) {
	s := new(Sample)
	d := allocated(func() {
		s = new(Sample)
		for e := -40; e < 40; e++ {
			for _, m := range []float64{1, 1.5, 1.99} {
				s.Add(math.Ldexp(m, e))
				s.Add(-math.Ldexp(m, e))
			}
		}
		s.Add(math.Inf(1))
		s.Add(math.Inf(-1))
	})
	t.Logf("worst case: %d B allocated", d)
	if d > 129<<10+4<<10 {
		t.Fatalf("worst-case Sample allocated %d B, want ≤ 129 KB plus index growth", d)
	}
	if len(s.pos.pages) != 64 || len(s.neg.pages) != 64 {
		t.Fatalf("pages %d/%d, want 64 octaves per sign", len(s.pos.pages), len(s.neg.pages))
	}
}
