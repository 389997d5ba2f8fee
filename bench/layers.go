package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/msg"
	"repro/internal/queue"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Layer timers: fixed-iteration loops around each layer's exported
// functions, reported as the median over batches of ns (or µs) per
// operation and, where allocation is the likely cost, allocations per
// operation. They say what one call costs in isolation; the workloads say
// whether that cost matters.

const timerBatches = 5

// timed runs op for iters iterations per batch and returns the median
// ns/op and allocs/op over batches. op receives the batch's running
// iteration index so it can use fresh sequence numbers.
func timed(batches, iters int, op func(i int)) (ns, allocs float64) {
	var nss, as []float64
	var ms runtime.MemStats
	n := 0
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			op(n)
			n++
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(el.Nanoseconds())/float64(iters))
		as = append(as, float64(ms.Mallocs-m0)/float64(iters))
	}
	return median(nss), median(as)
}

func data(payload int) *msg.Data {
	return &msg.Data{Group: 1, SourceNode: 2, LocalSeq: 3, OrderingNode: 4, GlobalSeq: 5, Payload: make([]byte, payload)}
}

// tokenWith returns a token whose table holds entries entries spread over
// 8 sources, a steady-state WTSNP.
func tokenWith(entries int) (*seq.Token, error) {
	tok := seq.NewToken(1)
	next := make(map[seq.NodeID]seq.LocalSeq)
	for i := 0; i < entries; i++ {
		src := seq.NodeID(i%8 + 1)
		lo := next[src] + 1
		if _, err := tok.Assign(src, 9, lo, lo+3); err != nil {
			return nil, err
		}
		next[src] = lo + 3
	}
	if got := tok.Table.Len(); got != entries {
		return nil, fmt.Errorf("bench: token table holds %d entries, want %d", got, entries)
	}
	return tok, nil
}

// loopback is a sender and a receiver transport joined over 127.0.0.1;
// got counts the messages the receiver's group handler was handed.
type loopback struct {
	a, b *wire.Transport
	got  chan int
}

func newLoopback() (*loopback, error) {
	lb := &loopback{got: make(chan int, 1<<16)} // holds a whole batch of handler calls so the reader never blocks on the timer loop
	var err error
	if lb.a, err = wire.Listen(wire.TransportConfig{Self: 1, Listen: "127.0.0.1:0"}); err != nil {
		return nil, err
	}
	if lb.b, err = wire.Listen(wire.TransportConfig{Self: 2, Listen: "127.0.0.1:0"}); err != nil {
		lb.a.Close()
		return nil, err
	}
	hooks := wire.GroupHooks{Handler: func(_ seq.NodeID, msgs []msg.Message) { lb.got <- len(msgs) }}
	for _, err := range []error{
		lb.b.Register(1, hooks),
		lb.a.Register(1, wire.GroupHooks{}),
		lb.a.AddPeer(1, 2, lb.b.LocalAddr().String()),
		lb.b.AddPeer(1, 1, lb.a.LocalAddr().String()),
	} {
		if err != nil {
			lb.close()
			return nil, err
		}
	}
	lb.a.Start()
	lb.b.Start()
	return lb, nil
}

func (lb *loopback) close() {
	lb.a.Close()
	lb.b.Close()
}

// await blocks until the receiver has handed over n messages. Loopback
// UDP does not drop below the socket buffer, and every timer waits often
// enough to stay below it; the timeout turns a lost datagram into an
// error instead of a hang.
func (lb *loopback) await(n int) error {
	for n > 0 {
		select {
		case k := <-lb.got:
			n -= k
		case <-time.After(5 * time.Second):
			return fmt.Errorf("bench: loopback transport lost %d messages", n)
		}
	}
	return nil
}

// layerTimers runs every timer. scale divides the iteration counts (the
// unit test runs one short batch so a renamed API fails fast); dir is
// scratch space for the store timers.
func layerTimers(batches, scale int, dir string) (metrics, error) {
	m := make(metrics)
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// row records one timer under stem+"_ns" and, when withAllocs, under
	// stem+"_allocs".
	row := func(stem string, withAllocs bool, iters int, op func(i int)) {
		ns, allocs := timed(batches, max(iters/scale, 1), op)
		m[stem+"_ns"] = ns
		if withAllocs {
			m[stem+"_allocs"] = allocs
		}
	}

	// rescale re-reports a row under another name and unit.
	rescale := func(from, to string, div float64) {
		m[to] = m[from] / div
		delete(m, from)
	}

	// msg: the codec every datagram body goes through.
	for _, size := range []struct {
		name string
		n    int
	}{{"data64", 64}, {"data1k", 1024}} {
		d := data(size.n)
		buf := msg.Encode(d)
		row("msg.encode_"+size.name, true, 200000, func(int) { msg.Encode(d) })
		row("msg.decode_"+size.name, true, 200000, func(int) {
			_, err := msg.Decode(buf)
			fail(err)
		})
	}
	tok, err := tokenWith(1024)
	if err != nil {
		return nil, err
	}
	tm := &msg.TokenMsg{From: 1, Token: tok}
	tbuf := msg.Encode(tm)
	m["msg.token1k_bytes"] = float64(len(tbuf))
	row("msg.encode_token1k", true, 2000, func(int) { msg.Encode(tm) })
	row("msg.decode_token1k", true, 2000, func(int) {
		_, err := msg.Decode(tbuf)
		fail(err)
	})

	// frame: 16 x 64 B bodies in one datagram.
	var batch []msg.Message
	for i := 0; i < 16; i++ {
		batch = append(batch, data(64))
	}
	secs := []wire.Section{{Group: 1, Msgs: batch}}
	fbuf, err := wire.EncodeFrame(1, 1, secs)
	if err != nil {
		return nil, err
	}
	row("frame.encode16", true, 20000, func(i int) {
		_, err := wire.EncodeFrame(1, uint64(i), secs)
		fail(err)
	})
	row("frame.decode16", true, 20000, func(int) {
		_, err := wire.DecodeFrame(fbuf)
		fail(err)
	})

	// transport, outbox: real sockets on loopback.
	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	one := data(64)
	row("transport.loopback", false, 5000, func(int) {
		fail(lb.a.Send(1, 2, one))
		fail(lb.await(1))
	})
	rescale("transport.loopback_ns", "transport.loopback_ns_per_datagram", 1)

	sched := sim.NewScheduler()
	ob := wire.NewSharedOutbox(lb.a, 0)
	row("outbox.enqueue_flush", true, 2000, func(int) {
		sched.After(0, func() {
			for _, d := range batch {
				ob.Enqueue(sched, 1, 2, d)
			}
		})
		_, err := sched.RunAll()
		fail(err)
		fail(lb.await(len(batch)))
	})
	rescale("outbox.enqueue_flush_ns", "outbox.enqueue_flush_ns_per_msg", float64(len(batch)))
	rescale("outbox.enqueue_flush_allocs", "outbox.enqueue_flush_allocs_per_msg", float64(len(batch)))
	if n := ob.SendErrs(); n != 0 {
		fail(fmt.Errorf("bench: %d outbox send errors", n))
	}
	lb.close()

	// driver: injecting work onto a group's event loop.
	drv := wire.NewDriver(sim.NewScheduler())
	drv.Start()
	calls := 0
	row("driver.call", false, 200000, func(int) { drv.Call(func() { calls++ }) })
	row("driver.callwait", false, 20000, func(int) { drv.CallWait(func() { calls++ }) })
	drv.Stop()

	// seq: the ordering table a token carries, 1,024 entries.
	assign := seq.NewWTSNP()
	if _, err := assign.Absorb(tok.Table); err != nil {
		return nil, err
	}
	nextLocal := func(t *seq.Token, src seq.NodeID) seq.LocalSeq { return t.Table.MaxAssignedLocal(src) + 1 }
	row("seq.absorb_delta", true, 20000, func(i int) {
		src := seq.NodeID(i%8 + 1)
		lo := nextLocal(tok, src)
		_, err := tok.Assign(src, 9, lo, lo)
		fail(err)
		_, err = assign.Absorb(tok.Table)
		fail(err)
	})
	tok, err = tokenWith(1024) // the delta timer grew the table; start over
	if err != nil {
		return nil, err
	}
	row("seq.clone_mutate", true, 20000, func(int) {
		c := tok.Clone()
		lo := nextLocal(c, 1)
		_, err := c.Assign(1, 9, lo, lo+3)
		fail(err)
	})
	hw := tok.Table.MaxAssignedLocal(1)
	row("seq.global_for", true, 500000, func(i int) {
		if _, _, ok := tok.Table.GlobalFor(1, seq.LocalSeq(uint64(i)%uint64(hw)+1)); !ok {
			fail(fmt.Errorf("bench: GlobalFor missed an assigned local"))
		}
	})

	// queue: the delivery queue and the per-source waiting queue.
	mq := queue.NewMQ(1 << 12)
	row("queue.mq_insert_advance", false, 500000, func(i int) {
		g := seq.GlobalSeq(i + 1)
		_, err := mq.Insert(&msg.Data{Group: 1, SourceNode: 1, OrderingNode: 1, GlobalSeq: g, LocalSeq: seq.LocalSeq(g)})
		fail(err)
		if _, ok := mq.NextDeliverable(); ok {
			mq.AdvanceFront()
		}
		if i%64 == 0 {
			mq.ReleaseUpTo(mq.Front())
		}
	})
	sq := queue.NewWQ().ForSource(1)
	row("queue.wq_insert_extract", false, 500000, func(i int) {
		sq.Insert(&msg.Data{SourceNode: 1, LocalSeq: seq.LocalSeq(i + 1)})
		if lo, hi := sq.ReadyRange(); lo != 0 {
			sq.Extract(lo, hi)
		}
	})

	// store: the durable delivery log.
	log, err := store.OpenFileLog(dir, store.FileLogOptions{})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadBytes)
	global := 0
	appendOne := func() {
		global++
		fail(log.Append(store.Record{Global: seq.GlobalSeq(global), Source: 1, Local: seq.LocalSeq(global), Payload: payload}))
	}
	row("store.append", false, 200000, func(int) { appendOne() })
	// One fsync per 64 appends, the shape of a 25 ms flush window at a
	// few thousand deliveries a second; only the Sync call is timed.
	var syncNS []float64
	for b := 0; b < batches*4/scale+1; b++ {
		for i := 0; i < 64; i++ {
			appendOne()
		}
		start := time.Now()
		fail(log.Sync())
		syncNS = append(syncNS, float64(time.Since(start).Nanoseconds()))
	}
	m["store.sync_us"] = median(syncNS) / 1000
	fail(log.Close())

	// sim: schedule one event and fire it.
	s := sim.NewScheduler()
	fired := 0
	row("sim.schedule_fire", false, 1000000, func(int) {
		s.After(1, func() { fired++ })
		s.Step()
	})

	// telemetry: rendering a registry the size of a 4-group daemon's.
	reg := telemetry.NewRegistry()
	for g := 1; g <= 4; g++ {
		label := strconv.Itoa(g)
		for c := 0; c < 20; c++ {
			reg.Counter(fmt.Sprintf("bench_counter_%d_total", c), "A counter.", "group", label).Add(uint64(c))
		}
		for h := 0; h < 4; h++ {
			reg.Histogram(fmt.Sprintf("bench_latency_%d_seconds", h), "A histogram.", telemetry.LatencyBuckets(), "group", label).Observe(0.001)
		}
	}
	row("telemetry.render", false, 2000, func(int) { fail(reg.WriteProm(io.Discard)) })
	rescale("telemetry.render_ns", "telemetry.render_us", 1000)

	return m, firstErr
}
