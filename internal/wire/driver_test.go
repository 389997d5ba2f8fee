package wire

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDriverRunsTimersInRealTime: events scheduled for virtual T fire
// once ~T of wall clock has passed, in order, on one goroutine.
func TestDriverRunsTimersInRealTime(t *testing.T) {
	sched := sim.NewScheduler()
	drv := NewDriver(sched)
	var order []int
	fired := make(chan time.Time, 8)
	start := time.Now()
	// Pre-Start scheduling is single-threaded and safe.
	sched.After(30*sim.Millisecond, func() { order = append(order, 2); fired <- time.Now() })
	sched.After(10*sim.Millisecond, func() { order = append(order, 1); fired <- time.Now() })
	drv.Start()
	defer drv.Stop()
	var at2 time.Time
	for i := 0; i < 2; i++ {
		select {
		case at := <-fired:
			at2 = at
		case <-time.After(5 * time.Second):
			t.Fatal("timer never fired")
		}
	}
	drv.CallWait(func() {
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("execution order %v, want [1 2]", order)
		}
	})
	if d := at2.Sub(start); d < 25*time.Millisecond {
		t.Fatalf("30ms timer fired after only %v", d)
	}
}

// TestDriverCallSerialization: injected calls and timer events never run
// concurrently (guarded by a non-atomic counter under -race) and the
// virtual clock tracks the wall clock for injected work.
func TestDriverCallSerialization(t *testing.T) {
	sched := sim.NewScheduler()
	drv := NewDriver(sched)
	drv.Start()
	defer drv.Stop()
	racy := 0
	var ticks atomic.Int64
	drv.CallWait(func() {
		sched.Every(100*sim.Microsecond, func() { racy++; ticks.Add(1) })
	})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			drv.Call(func() { racy++ })
		}
		close(done)
	}()
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var now sim.Time
	if !drv.CallWait(func() { now = sched.Now() }) {
		t.Fatal("CallWait on running driver failed")
	}
	if now <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	drv.Stop() // joins the loop: the read below is ordered after every racy++
	_ = racy
}

// TestDriverStop: Stop joins the loop; Call after Stop reports false.
func TestDriverStop(t *testing.T) {
	sched := sim.NewScheduler()
	drv := NewDriver(sched)
	drv.Start()
	drv.CallWait(func() { sched.After(3600*sim.Second, func() {}) })
	drv.Stop()
	drv.Stop() // idempotent
	if drv.Call(func() {}) {
		t.Fatal("Call after Stop succeeded")
	}
	if drv.CallWait(func() {}) {
		t.Fatal("CallWait after Stop succeeded")
	}
}
