package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerZeroValue(t *testing.T) {
	var s Scheduler
	if s.Now() != 0 {
		t.Fatalf("zero scheduler Now = %v, want 0", s.Now())
	}
	if s.Len() != 0 {
		t.Fatalf("zero scheduler Len = %d, want 0", s.Len())
	}
	if s.Step() {
		t.Fatal("Step on empty scheduler returned true")
	}
}

func TestEventOrderByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order = %v, want %v", got, want)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestEventTieBreakByInsertion(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order = %v, want insertion order", got)
		}
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-5, func() { fired = true })
	s.Step()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

func TestAtPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {})
	s.Step()
	fired := Time(-1)
	s.At(50, func() { fired = s.Now() })
	s.Step()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.After(1, func() {})
	s.Step()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	n, err := s.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Run(12) executed %d events, want 2", n)
	}
	if s.Now() != 12 {
		t.Fatalf("Now after Run(12) = %v, want 12", s.Now())
	}
	n, err = s.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("second Run executed %d events, want 2", n)
	}
}

func TestRunAdvancesClockWhenEmpty(t *testing.T) {
	s := NewScheduler()
	if _, err := s.Run(500); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 500 {
		t.Fatalf("Now = %v, want 500", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			s.After(1, schedule)
		}
	}
	s.After(1, schedule)
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	count := 0
	tk := s.Every(10, func() {
		count++
		if count == 5 {
			s.Stop()
		}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("ticker fired %d times, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("Now = %v, want 50", s.Now())
	}
	tk.Stop()
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("stopped ticker fired again: %d", count)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	tk = s.Every(1, func() {
		count++
		tk.Stop()
	})
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("ticker fired %d times after Stop inside callback, want 1", count)
	}
}

func TestEventBudget(t *testing.T) {
	s := NewScheduler()
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	_, err := s.RunAll()
	if err != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestStopInsideRun(t *testing.T) {
	s := NewScheduler()
	ran := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {
			ran++
			if ran == 3 {
				s.Stop()
			}
		})
	}
	n, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3 (stopped)", n)
	}
	// A subsequent run resumes.
	n, err = s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("resumed Run executed %d, want 7", n)
	}
}

func TestTimeString(t *testing.T) {
	if got := (Time(1500000)).String(); got != "1.500000s" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := (Time(42)).Seconds(); math.Abs(got-42e-6) > 1e-12 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestQuickEventsAlwaysSorted(t *testing.T) {
	// Property: for any set of schedule times, execution order is the
	// sorted order of the (clamped) times.
	f := func(raw []int16) bool {
		s := NewScheduler()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			if at < 0 {
				at = 0
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		if _, err := s.RunAll(); err != nil {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolFrequency(t *testing.T) {
	r := NewRNG(5)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	freq := float64(hits) / float64(n)
	if math.Abs(freq-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", freq)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp(5) sample mean = %v", mean)
	}
}

func TestRNGDuration(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		d := r.Duration(10, 20)
		if d < 10 || d > 20 {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(7, 7) != 7 {
		t.Fatal("Duration with lo==hi")
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(99)
	a := r.Fork()
	b := r.Fork()
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams identical")
	}
}

func TestQuickRNGDurationInRange(t *testing.T) {
	f := func(seed uint64, lo, span uint16) bool {
		r := NewRNG(seed)
		l := Time(lo)
		h := l + Time(span)
		d := r.Duration(l, h)
		return d >= l && d <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLenConstantTime(t *testing.T) {
	s := NewScheduler()
	if s.Len() != 0 {
		t.Fatal("empty Len")
	}
	t1 := s.After(10, func() {})
	s.After(20, func() {})
	t3 := s.After(30, func() {})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !t1.Stop() {
		t.Fatal("Stop failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len after Stop = %d, want 2", s.Len())
	}
	if t1.Stop() {
		t.Fatal("double Stop succeeded")
	}
	s.Step()
	if s.Len() != 1 {
		t.Fatalf("Len after Step = %d, want 1", s.Len())
	}
	if !t3.Pending() {
		t.Fatal("t3 should be pending")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", s.Len())
	}
	if t3.Pending() {
		t.Fatal("t3 still pending after drain")
	}
}

func TestAtCallDispatch(t *testing.T) {
	s := NewScheduler()
	got := make([]int, 0, 3)
	record := func(v any) { got = append(got, v.(int)) }
	s.AtCall(5, record, 1)
	s.AfterCall(10, record, 2)
	tm := s.AtCall(7, record, 99)
	tm.Stop()
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// TestRecycledEventTimerSafety pins the generation discipline: a Timer
// handle for a fired event must stay inert even after the event struct is
// recycled into a new scheduling.
func TestRecycledEventTimerSafety(t *testing.T) {
	s := NewScheduler()
	fired := 0
	t1 := s.After(1, func() { fired++ })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	// The event backing t1 is now on the freelist; reschedule reuses it.
	t2 := s.After(1, func() { fired++ })
	if t1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if t1.Stop() {
		t.Fatal("stale handle stopped the recycled event")
	}
	if !t2.Pending() {
		t.Fatal("fresh handle should be pending")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}
