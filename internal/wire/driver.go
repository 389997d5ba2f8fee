package wire

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// Driver executes a deterministic sim.Scheduler against the wall clock —
// the real-time interpreter for the event-driven protocol core. A daemon
// runs exactly one, over the scheduler every hosted group shares. Virtual
// microseconds are anchored at Start: an event scheduled for virtual
// time T runs once the wall clock passes Start+T. All protocol state is
// touched only from the driver goroutine, which is also the daemon's
// only sender; other goroutines (the socket reader, one call per
// datagram, and control planes) enter via Call/CallWait, which
// serialize injected work between events.
//
// The protocol core is unchanged: its RTO retransmission timers, τ
// ordering ticks, and ack-delay timers are ordinary scheduler events
// that now fire in real time.
//
// Real time has a quantum. The driver sleeps on a Go timer, and Go's
// Linux netpoller waits in whole milliseconds, so an event due less
// than a millisecond ahead on an otherwise idle driver fires about
// 1.1 ms late: a standalone 200 µs timer measured p50 1.1 ms and p99
// 2.6–4.0 ms on a 2-core Linux host. The wire profile's TokenHold of
// 200 µs therefore runs at roughly 0.8–0.9 ms on a steady ring, and
// shorter whenever other traffic (a datagram, an injected Call) wakes
// the loop first — which is why token-driven metrics drift with load.
type Driver struct {
	sched *sim.Scheduler
	calls chan func()
	quit  chan struct{}
	done  chan struct{}

	start    time.Time
	started  bool
	stopOnce sync.Once

	// idle caps the sleep when no event is pending, so the virtual
	// clock never lags the wall clock by more than this.
	idle time.Duration
}

// NewDriver wraps a scheduler. The scheduler must not be driven by
// anyone else once Start is called.
func NewDriver(s *sim.Scheduler) *Driver {
	return &Driver{
		sched: s,
		calls: make(chan func(), 4096),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		idle:  50 * time.Millisecond,
	}
}

// Start anchors virtual time zero at the current wall clock and starts
// the execution loop.
func (d *Driver) Start() {
	if d.started {
		panic("wire: driver started twice")
	}
	d.started = true
	d.start = time.Now()
	go d.loop()
}

// wallNow maps the wall clock to virtual microseconds.
func (d *Driver) wallNow() sim.Time {
	return sim.Time(time.Since(d.start) / time.Microsecond)
}

// Call enqueues fn to run on the driver goroutine, between events, with
// the virtual clock synced to the wall clock. It reports false (without
// running fn) once the driver is stopped. It may block briefly when the
// injection queue is full — backpressure on the socket reader.
func (d *Driver) Call(fn func()) bool {
	select {
	case <-d.quit:
		return false
	default:
	}
	select {
	case d.calls <- fn:
		return true
	case <-d.quit:
		return false
	}
}

// CallWait runs fn on the driver goroutine and waits for it. It reports
// false if the driver stopped before fn ran.
func (d *Driver) CallWait(fn func()) bool {
	ran := make(chan struct{})
	if !d.Call(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-d.done:
		// The loop exited; fn may never run.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// Stop terminates the loop and waits for it to exit. Pending injected
// calls are discarded. Idempotent.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.quit) })
	if d.started {
		<-d.done
	}
}

func (d *Driver) loop() {
	defer close(d.done)
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for {
		// Execute everything due up to the present; Run also advances
		// the virtual clock to "now" even when idle, so injected work
		// and new timers observe current time.
		d.sched.Run(d.wallNow())

		wait := d.idle
		if at, ok := d.sched.NextAt(); ok {
			until := time.Duration(at-d.wallNow()) * time.Microsecond
			if until < 0 {
				until = 0
			}
			if until < wait {
				wait = until
			}
		}
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		tm.Reset(wait)

		select {
		case <-d.quit:
			return
		case fn := <-d.calls:
			d.sched.Run(d.wallNow())
			fn()
			// Drain a bounded batch of the injection queue before going
			// back to event processing: under overload the socket
			// reader keeps this queue full, and servicing one call per
			// run cycle would make a waiter (a deadline report
			// collection, a membership proposal) queue behind thousands
			// of datagram deliveries — each paying a full catch-up Run.
			// The batch must be bounded, though: an unbounded drain
			// under sustained inbound pressure never returns to the
			// scheduler, and protocol timers (a held token's forward, a
			// courier RTO) starve behind the flood.
		drain:
			for i := 0; i < 256; i++ {
				select {
				case fn := <-d.calls:
					fn()
				default:
					break drain
				}
			}
		case <-tm.C:
		}
	}
}
