package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/seq"
	"repro/internal/sim"
)

// refDeliveryLog is the delivery oracle as it was before it was
// bounded: every send time and every global's content are kept for the
// whole run, and receivers are not declared. FuzzDeliveryLog runs it
// beside DeliveryLog; every verdict and counter must agree.
type refDeliveryLog struct {
	sendTime    map[seq.NodeID]*table[sentAt]
	sent        int
	content     table[refContent]
	perReceiver map[uint32]*refReceiver

	Latency   Sample
	Delivered Counter
	Gaps      Counter
	violation error
}

type refKey struct {
	Source seq.NodeID
	Local  seq.LocalSeq
}

type refContent struct {
	key refKey
	ok  bool
}

type refReceiver struct {
	last            seq.GlobalSeq
	delivered       uint64
	firstAt, lastAt sim.Time
	maxGap          sim.Time
	seen            bool
}

func newRefDeliveryLog() *refDeliveryLog {
	return &refDeliveryLog{
		sendTime:    make(map[seq.NodeID]*table[sentAt]),
		perReceiver: make(map[uint32]*refReceiver),
	}
}

func (l *refDeliveryLog) Sent(src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	tab := l.sendTime[src]
	if tab == nil {
		tab = new(table[sentAt])
		l.sendTime[src] = tab
	}
	e := tab.at(uint64(local) - 1)
	if *e == 0 {
		l.sent++
	}
	*e = sentAt(t + 1)
}

func (l *refDeliveryLog) Deliver(recv uint32, g seq.GlobalSeq, src seq.NodeID, local seq.LocalSeq, t sim.Time) {
	st, ok := l.perReceiver[recv]
	if !ok {
		st = &refReceiver{}
		l.perReceiver[recv] = st
	}
	if st.seen && g <= st.last {
		l.fail(fmt.Errorf("receiver %d: global seq %d after %d (order violation or duplicate)", recv, g, st.last))
		return
	}
	key := refKey{src, local}
	if c := l.content.at(uint64(g) - 1); !c.ok {
		*c = refContent{key: key, ok: true}
	} else if c.key != key {
		l.fail(fmt.Errorf("global seq %d delivered as %v at receiver %d but %v elsewhere", g, key, recv, c.key))
		return
	}
	if st.seen {
		if gap := t - st.lastAt; gap > st.maxGap {
			st.maxGap = gap
		}
	} else {
		st.firstAt = t
	}
	st.seen = true
	st.last = g
	st.lastAt = t
	st.delivered++
	l.Delivered.Inc()
	if tab := l.sendTime[src]; tab != nil {
		if sent := tab.get(uint64(local) - 1); sent != 0 {
			l.Latency.AddTime(t - sim.Time(sent-1))
		}
	}
}

func (l *refDeliveryLog) Skip(recv uint32, g seq.GlobalSeq) { l.Gaps.Inc() }

func (l *refDeliveryLog) fail(err error) {
	if l.violation == nil {
		l.violation = err
	}
}

// fuzzLogOps caps one input's operations, and fuzzLogGlobals the
// stream's length before a long jump: the minimizer is quadratic in
// input length, and runs each candidate to the end.
const (
	fuzzLogOps     = 200
	fuzzLogGlobals = 8 * page
)

// logPair drives both logs from one generated stream. The stream has a
// true assignment of messages to globals, in per-source local order,
// with some globals really lost (sent, then skipped by everyone). Each
// declared receiver delivers or skips globals above its position, in
// increasing order, and leaves and joins again; planted duplicates,
// regressions and content conflicts are the only violations it makes.
type logPair struct {
	t    *testing.T
	got  *DeliveryLog
	ref  *refDeliveryLog
	now  sim.Time
	seed uint64

	truth   []refContent // index g-1; !ok marks a really-lost global
	localOf map[seq.NodeID]seq.LocalSeq
	recv    [5]struct {
		declared bool
		pos      seq.GlobalSeq // the log's position: start, skip or delivery
		last     seq.GlobalSeq // highest delivered
	}
	horizon seq.GlobalSeq
}

// assign extends the true stream through global g, recording each send.
func (p *logPair) assign(g seq.GlobalSeq) {
	for seq.GlobalSeq(len(p.truth)) < g {
		p.seed = p.seed*6364136223846793005 + 1442695040888963407
		r := p.seed >> 33
		src := seq.NodeID(1 + r%3)
		if r%17 == 0 {
			// A send that is never ordered stays in the FIFO until a
			// later local of its source is released.
			p.send(src)
		}
		local := p.send(src)
		p.truth = append(p.truth, refContent{key: refKey{src, local}, ok: r%11 != 0})
	}
}

func (p *logPair) send(src seq.NodeID) seq.LocalSeq {
	p.localOf[src]++
	p.now += sim.Millisecond
	p.got.Sent(src, p.localOf[src], p.now)
	p.ref.Sent(src, p.localOf[src], p.now)
	return p.localOf[src]
}

// settle recomputes the horizon the log must have: the lowest declared
// position, unchanged while no receiver is declared.
func (p *logPair) settle() {
	lowest, any := seq.GlobalSeq(math.MaxUint64), false
	for _, r := range p.recv {
		if r.declared {
			lowest, any = min(lowest, r.pos), true
		}
	}
	if any {
		p.horizon = max(p.horizon, lowest)
	}
}

func (p *logPair) step(op, who, arg byte) {
	id := uint32(who%5) + 1
	r := &p.recv[id-1]
	p.now += sim.Time(arg%7) * sim.Millisecond
	switch {
	case !r.declared && op%8 != 7:
		start := seq.GlobalSeq(arg) * seq.GlobalSeq(1+op%3)
		p.got.Join(id, start)
		r.declared = true
		r.pos = max(start, p.horizon)
	case op%8 == 0:
		p.got.Leave(id)
		r.declared = false
	case op%8 == 1 && r.last > 0:
		// A duplicate or a regression.
		g := r.last - seq.GlobalSeq(arg)%r.last
		c := p.truth[g-1].key
		p.got.Deliver(id, g, c.Source, c.Local, p.now)
		p.ref.Deliver(id, g, c.Source, c.Local, p.now)
	case op%8 == 2:
		// A conflicting content, never sent.
		g := r.pos + 1 + seq.GlobalSeq(arg%3)
		p.assign(g)
		p.got.Deliver(id, g, 9, seq.LocalSeq(arg), p.now)
		p.ref.Deliver(id, g, 9, seq.LocalSeq(arg), p.now)
		r.pos, r.last = g, g
	case op%8 == 7:
		if r.declared {
			p.got.Skip(id, r.pos+1)
			p.ref.Skip(id, r.pos+1)
			r.pos++
		}
	default:
		// Deliver (or skip, if really lost) the next global, or one a
		// little or a long way further on.
		g := r.pos + 1 + seq.GlobalSeq(arg%4)
		if arg == 255 && len(p.truth) < fuzzLogGlobals {
			g += 2 * page
		}
		p.assign(g)
		if c := p.truth[g-1]; c.ok {
			p.got.Deliver(id, g, c.key.Source, c.key.Local, p.now)
			p.ref.Deliver(id, g, c.key.Source, c.key.Local, p.now)
			r.last = g
		} else {
			p.got.Skip(id, g)
			p.ref.Skip(id, g)
		}
		r.pos = g
	}
	p.settle()
}

// check requires both logs to agree on every verdict and counter, the
// bounded log's horizon to be the lowest declared position (until a
// refused delivery leaves the model's positions ahead), and no window
// page to be held wholly below it.
func (p *logPair) check() {
	t, got, ref := p.t, p.got, p.ref
	t.Helper()
	if fmt.Sprint(got.Err()) != fmt.Sprint(ref.violation) {
		t.Fatalf("verdict %v, reference %v", got.Err(), ref.violation)
	}
	if got.Err() == nil && got.horizon != p.horizon {
		t.Fatalf("horizon %d, want %d", got.horizon, p.horizon)
	}
	if got.Delivered.Value() != ref.Delivered.Value() || got.Gaps.Value() != ref.Gaps.Value() || got.SentCount() != ref.sent {
		t.Fatalf("delivered/gaps/sent %d/%d/%d, reference %d/%d/%d", got.Delivered.Value(), got.Gaps.Value(), got.SentCount(),
			ref.Delivered.Value(), ref.Gaps.Value(), ref.sent)
	}
	if got.Latency.N() != ref.Latency.N() || got.Latency.Mean() != ref.Latency.Mean() ||
		got.Latency.Min() != ref.Latency.Min() || got.Latency.Max() != ref.Latency.Max() ||
		got.Latency.Quantile(0.5) != ref.Latency.Quantile(0.5) || got.Latency.Quantile(0.99) != ref.Latency.Quantile(0.99) {
		t.Fatalf("latency %s, reference %s", got.Latency.Summary(), ref.Latency.Summary())
	}
	for id, rs := range ref.perReceiver {
		st := got.perReceiver[id]
		if st == nil || st.delivered != rs.delivered || st.last != rs.last || st.maxGap != rs.maxGap ||
			st.firstAt != rs.firstAt || st.lastAt != rs.lastAt {
			t.Fatalf("receiver %d: %+v, reference %+v", id, st, rs)
		}
	}
	for q := range got.window.pages {
		if q < uint64(got.horizon)>>pageBits {
			t.Fatalf("window page %d held below the horizon %d", q, got.horizon)
		}
	}
}

// FuzzDeliveryLog drives the bounded DeliveryLog and refDeliveryLog,
// the unbounded oracle it replaced, with one random stream of Join,
// Leave, Sent, Deliver and Skip, and requires the same first violation
// (or none) and the same counters.
func FuzzDeliveryLog(f *testing.F) {
	f.Add([]byte{0, 3, 5, 3, 0, 1, 3, 1, 2, 3, 0, 9, 3, 1, 9, 3, 2, 0, 3, 0, 4})
	f.Add([]byte{3, 0, 0, 3, 1, 0, 3, 0, 255, 3, 1, 1, 7, 1, 0, 3, 1, 255, 0, 0, 0, 3, 0, 40})
	f.Add([]byte{3, 0, 0, 3, 1, 0, 2, 0, 1, 3, 1, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		p := &logPair{t: t, got: NewDeliveryLog(), ref: newRefDeliveryLog(), seed: uint64(in[0]),
			localOf: make(map[seq.NodeID]seq.LocalSeq)}
		ops := in[1:]
		if len(ops) > 3*fuzzLogOps {
			ops = ops[:3*fuzzLogOps]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			p.step(ops[0], ops[1], ops[2])
			p.check()
			if p.got.Err() != nil {
				return
			}
		}
	})
}
