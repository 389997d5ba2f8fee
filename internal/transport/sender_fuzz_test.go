package transport

import (
	"fmt"
	"testing"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// hop is what FuzzSender drives: Sender and the reference refSender.
type hop interface {
	Send(seqno uint64, m msg.Message)
	SendRun(start uint64, msgs []msg.Message)
	Ack(cum uint64)
	Repair(above uint64) int
	Retarget(to seq.NodeID)
	Close()
	Unsent(seqno uint64) bool
	Acked() uint64
	Outstanding() int
	counts() (retransmissions, repairs uint64)
	onGiveUp(fn func(seqno uint64))
}

func (s *Sender) counts() (uint64, uint64)    { return s.Retransmissions, s.Repairs }
func (s *Sender) onGiveUp(fn func(uint64))    { s.OnGiveUp = fn }
func (s *refSender) counts() (uint64, uint64) { return s.Retransmissions, s.Repairs }
func (s *refSender) onGiveUp(fn func(uint64)) { s.OnGiveUp = fn }

// scriptNet carries one hop for a script: it logs every transmission and
// delivers each surviving one to the script's receiver after a fixed
// latency, as a scheduler event, so deliveries, acks and the sender's
// timeouts share instants and their order matters.
type scriptNet struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	loss  float64
	lat   sim.Time
	log   *[]string
	recv  func(seqno uint64)
}

func (n *scriptNet) Scheduler() *sim.Scheduler { return n.sched }

func (n *scriptNet) carry(to seq.NodeID, m msg.Message) (uint64, bool) {
	hb := m.(*msg.Heartbeat)
	*n.log = append(*n.log, fmt.Sprintf("%v tx to=%v sn=%d kind=%d", n.sched.Now(), to, hb.Epoch, hb.From))
	return hb.Epoch, !n.rng.Bool(n.loss)
}

func (n *scriptNet) Send(_, to seq.NodeID, m msg.Message) bool {
	if sn, ok := n.carry(to, m); ok {
		n.sched.After(n.lat, func() { n.recv(sn) })
	}
	return true
}

func (n *scriptNet) SendBurst(_, to seq.NodeID, msgs []msg.Message) {
	var got []uint64
	for _, m := range msgs {
		if sn, ok := n.carry(to, m); ok {
			got = append(got, sn)
		}
	}
	if len(got) > 0 {
		n.sched.After(n.lat, func() {
			for _, sn := range got {
				n.recv(sn)
			}
		})
	}
}

// runSenderScript plays script against one hop sender built by mk and
// returns everything observable: each transmission (instant,
// destination, seqno), each give-up, and the sender's counters, window
// and Unsent answers after every step.
//
// The stream's seqnos are sparse: besides dense sends and runs there are
// skips (a send at the max of a range whose other seqnos are never sent)
// and jumps (a leap of hundreds). The receiver acks cumulatively over the
// seqnos the script issued and reports a gap on any arrival above its
// ack; a give-up mostly resends the seqno as a skip, as the really-lost
// rule does, and for every fourth seqno leaves the hole. Steps may run now or be scheduled whole milliseconds ahead,
// which lands them on the same instants as the sender's timeouts.
func runSenderScript(script []byte, cfg Config, mk func(Network, Config) hop) []string {
	var out []string
	sched := sim.NewScheduler()
	net := &scriptNet{sched: sched, rng: sim.NewRNG(uint64(len(script))), lat: sim.Millisecond, log: &out}
	s := mk(net, cfg)

	var issued []uint64 // seqnos the script sent, ascending
	arrived := map[uint64]bool{}
	cum := 0 // issued[:cum] have all arrived, or were acked out of band
	net.recv = func(sn uint64) {
		arrived[sn] = true
		from := cum
		for cum < len(issued) && (arrived[issued[cum]] || issued[cum] <= s.Acked()) {
			cum++
		}
		if cum > from {
			c := issued[cum-1]
			sched.After(net.lat, func() { s.Ack(c) })
		}
		if cum < len(issued) && sn > issued[cum] {
			sched.After(net.lat, func() { s.Repair(sn) })
		}
	}
	s.onGiveUp(func(sn uint64) {
		out = append(out, fmt.Sprintf("%v give-up sn=%d", sched.Now(), sn))
		if sn%4 != 0 {
			s.Send(sn, &msg.Heartbeat{From: 2, Epoch: sn})
		}
	})
	next := uint64(0)
	issue := func(sn uint64) {
		if n := len(issued); n == 0 || sn > issued[n-1] {
			issued = append(issued, sn)
		}
	}
	pick := func(b byte) uint64 {
		if len(issued) == 0 {
			return uint64(b)
		}
		return issued[int(b)%len(issued)]
	}

	var step func(op, arg byte, nested bool)
	step = func(op, arg byte, nested bool) {
		switch op % 12 {
		case 0: // dense send
			next++
			issue(next)
			s.Send(next, &msg.Heartbeat{From: 1, Epoch: next})
		case 1: // a run of 2..7
			k := 2 + int(arg%6)
			run := make([]msg.Message, k)
			for i := range run {
				issue(next + 1 + uint64(i))
				run[i] = &msg.Heartbeat{From: 1, Epoch: next + 1 + uint64(i)}
			}
			s.SendRun(next+1, run)
			next += uint64(k)
		case 2: // a skip, sent at its range max
			next += 1 + uint64(arg%8)
			issue(next)
			s.Send(next, &msg.Heartbeat{From: 3, Epoch: next})
		case 3: // a jump
			next += 100 + 16*uint64(arg)
			issue(next)
			s.Send(next, &msg.Heartbeat{From: 4, Epoch: next})
		case 4: // an ack out of band: a few past the current, or at an issued seqno
			if arg&1 == 0 {
				s.Ack(s.Acked() + uint64(arg%8))
			} else {
				s.Ack(pick(arg >> 1))
			}
		case 5: // a gap report out of band
			s.Repair(pick(arg))
		case 6:
			s.Retarget(seq.NodeID(2 + arg%2))
		case 7: // let time pass (not from a scheduled step: Run is not re-entrant)
			if nested {
				break
			}
			if _, err := sched.Run(sched.Now() + sim.Time(arg)*500*sim.Microsecond); err != nil {
				out = append(out, err.Error())
			}
		case 8: // a step of its own, 1-40 ms ahead (not from a scheduled step: no chains)
			if nested {
				break
			}
			inner := arg
			sched.After(sim.Time(1+arg%40)*sim.Millisecond, func() { step(inner>>3, inner, true) })
		case 9: // resend an issued seqno: a duplicate, acked, or given up
			sn := pick(arg)
			s.Send(sn, &msg.Heartbeat{From: 1, Epoch: sn})
		case 10: // loss from none to a dead link, which ends in give-ups
			net.loss = float64(arg%5) / 4
		case 11:
			if arg < 4 {
				s.Close()
			}
		}
		r, p := s.counts()
		probe := pick(arg)
		out = append(out, fmt.Sprintf("%v op=%d acked=%d out=%d rtx=%d rep=%d unsent(%d)=%v unsent(%d)=%v",
			sched.Now(), op%12, s.Acked(), s.Outstanding(), r, p, probe, s.Unsent(probe), next+1, s.Unsent(next+1)))
	}
	for i := 0; i+1 < len(script); i += 2 {
		step(script[i], script[i+1], false)
	}
	// Drain: losses stay on, so a give-up's resend is lost now and then
	// too; bound the tail in virtual time.
	if _, err := sched.Run(sched.Now() + 5*sim.Second); err != nil {
		out = append(out, err.Error())
	}
	r, p := s.counts()
	out = append(out, fmt.Sprintf("end %v acked=%d out=%d rtx=%d rep=%d", sched.Now(), s.Acked(), s.Outstanding(), r, p))
	return out
}

// FuzzSender drives Sender and the reference refSender (one timer event
// per message, a map window) through the same script on twin schedulers,
// under the fixed-RTO default and under exponential backoff, and requires
// the same transmissions at the same instants, the same give-ups and the
// same counters after every step.
func FuzzSender(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 3, 7, 2, 4, 0, 7, 80})
	f.Add([]byte{10, 3, 0, 0, 0, 0, 1, 5, 2, 6, 3, 1, 7, 100, 7, 200, 7, 255})
	f.Add([]byte{1, 4, 6, 1, 7, 30, 5, 3, 9, 2, 8, 41, 8, 200, 7, 120})
	f.Add([]byte{10, 2, 0, 0, 2, 7, 3, 2, 0, 0, 11, 0, 0, 0, 7, 50})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			return
		}
		for _, cfg := range []Config{DefaultConfig, {RTO: 20 * sim.Millisecond, MaxRetries: 6, BackoffCap: 160 * sim.Millisecond}} {
			want := runSenderScript(script, cfg, func(n Network, c Config) hop { return newRefSender(n, 1, 2, c) })
			got := runSenderScript(script, cfg, func(n Network, c Config) hop { return NewSender(n, 1, 2, c) })
			for i := range min(len(want), len(got)) {
				if want[i] != got[i] {
					t.Fatalf("%+v: line %d:\n got %s\nwant %s", cfg, i, got[i], want[i])
				}
			}
			if len(want) != len(got) {
				t.Fatalf("%+v: %d lines, want %d", cfg, len(got), len(want))
			}
		}
	})
}
