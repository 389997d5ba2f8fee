package wire

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/seq"
	"repro/internal/sim"
)

// pairUp binds two transports on loopback and introduces them to each
// other on behalf of group 1.
func pairUp(t *testing.T, fa, fb Faults) (*Transport, *Transport) {
	t.Helper()
	a, err := Listen(TransportConfig{Self: 1, Listen: "127.0.0.1:0", Faults: fa})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(TransportConfig{Self: 2, Listen: "127.0.0.1:0", Faults: fb})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	if err := a.AddPeer(1, 2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, 1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// hasPeer reports whether group references peer id on tr.
func hasPeer(tr *Transport, group uint32, id seq.NodeID) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	p := tr.peers[id]
	if p == nil {
		return false
	}
	_, ok := p.refs[group]
	return ok
}

// register installs hooks for group on tr, failing the test on error.
func register(t *testing.T, tr *Transport, group uint32, hooks GroupHooks) {
	t.Helper()
	if err := tr.Register(group, hooks); err != nil {
		t.Fatal(err)
	}
}

func TestTransportDelivery(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	var mu sync.Mutex
	var got []msg.Message
	var from seq.NodeID
	register(t, b, 1, GroupHooks{Handler: func(f seq.NodeID, ms []msg.Message) {
		mu.Lock()
		from = f
		got = append(got, ms...)
		mu.Unlock()
	}})
	b.Start()
	a.Start()
	want := sampleMsgs()
	if err := a.Send(1, 2, want...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d", n, len(want))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if from != 1 {
		t.Fatalf("from = %v, want 1", from)
	}
	for i, m := range got {
		if m.Kind() != want[i].Kind() {
			t.Fatalf("msg %d kind %v, want %v (batching must preserve order)", i, m.Kind(), want[i].Kind())
		}
	}
	st := a.Stats().Peers[2]
	if st.SentDatagrams != 1 || st.SentMsgs != uint64(len(want)) {
		t.Fatalf("sender stats: %+v (want one datagram, %d msgs)", st, len(want))
	}
	rst := b.Stats().Peers[1]
	if rst.RecvDatagrams != 1 || rst.RecvMsgs != uint64(len(want)) {
		t.Fatalf("receiver stats: %+v", rst)
	}
	gs := b.Stats().Groups[1]
	if gs.RecvMsgs != uint64(len(want)) || gs.RecvBytes == 0 {
		t.Fatalf("group 1 traffic split not counted: %+v", gs)
	}
}

// TestTransportGroupDemux: sections for three groups — some coalesced
// into one datagram, some sent separately — each reach only their own
// group's handler, with per-group RX stats split correctly.
func TestTransportGroupDemux(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	for _, g := range []uint32{10, 20, 30} {
		// Both sides reference the peer per group: sender to route, and
		// receiver so each group's sections count as ring traffic rather
		// than unknown-sender solicitations.
		if err := a.AddPeer(g, 2, b.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := b.AddPeer(g, 1, a.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[uint32][]msg.Message{}
	handlerFor := func(g uint32) Handler {
		return func(f seq.NodeID, ms []msg.Message) {
			for _, m := range ms {
				if d, ok := m.(*msg.Data); ok && d.Group != seq.GroupID(g) {
					t.Errorf("group %d handler got a message tagged for group %d", g, d.Group)
				}
			}
			mu.Lock()
			got[g] = append(got[g], ms...)
			mu.Unlock()
		}
	}
	for _, g := range []uint32{10, 20, 30} {
		register(t, b, g, GroupHooks{Handler: handlerFor(g)})
	}
	b.Start()
	a.Start()
	mk := func(g uint32, n int) []msg.Message {
		var ms []msg.Message
		for i := 0; i < n; i++ {
			ms = append(ms, &msg.Data{Group: seq.GroupID(g), SourceNode: 1,
				LocalSeq: seq.LocalSeq(i + 1), OrderingNode: 1, GlobalSeq: seq.GlobalSeq(i + 1),
				Payload: []byte{byte(g)}})
		}
		return ms
	}
	// One coalesced datagram carrying two groups' sections, then a
	// single-group send for the third — both demux paths.
	if err := a.SendSections(2, []Section{
		{Group: 10, Msgs: mk(10, 3)},
		{Group: 20, Msgs: mk(20, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(30, 2, mk(30, 4)...); err != nil {
		t.Fatal(err)
	}
	want := map[uint32]int{10: 3, 20: 2, 30: 4}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := true
		for g, n := range want {
			if len(got[g]) < n {
				done = false
			}
		}
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("demux incomplete: got %v, want %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	for g, n := range want {
		if len(got[g]) != n {
			t.Fatalf("group %d got %d msgs, want %d", g, len(got[g]), n)
		}
	}
	mu.Unlock()
	st := b.Stats()
	for g, n := range want {
		if gs := st.Groups[g]; gs.RecvMsgs != uint64(n) {
			t.Fatalf("group %d RX stats %+v, want %d msgs", g, gs, n)
		}
	}
	// The coalesced pair shared one datagram.
	sent := a.Stats()
	if ps := sent.Peers[2]; ps.SentDatagrams != 2 {
		t.Fatalf("expected 2 datagrams (one coalesced + one single), sent %d", ps.SentDatagrams)
	}
	// The sender books bytes from its planning pass, the receiver from the
	// datagrams and sections that arrived: the two must agree exactly.
	if tx, rx := sent.Peers[2].SentBytes, st.Peers[1].RecvBytes; tx != rx {
		t.Fatalf("sender booked %d datagram bytes, receiver read %d", tx, rx)
	}
	for g := range want {
		if tx, rx := sent.Groups[g].SentBytes, st.Groups[g].RecvBytes; tx != rx || tx == 0 {
			t.Fatalf("group %d: sender booked %d section bytes, receiver %d", g, tx, rx)
		}
	}
}

// TestTransportUnknownGroupDrops: traffic for a group this daemon never
// registered is dropped and counted — never fatal — while a registered
// sibling group's traffic keeps flowing through the same reader. Once
// the late group registers, its subsequent traffic delivers: the
// regression test for a late-starting group wedging the reader.
func TestTransportUnknownGroupDrops(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	if err := a.AddPeer(7, 2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[uint32]int{}
	count := func(g uint32) Handler {
		return func(_ seq.NodeID, ms []msg.Message) {
			mu.Lock()
			got[g] += len(ms)
			mu.Unlock()
		}
	}
	register(t, b, 1, GroupHooks{Handler: count(1)})
	b.Start()
	a.Start()

	probe := &msg.Heartbeat{From: 1, Epoch: 1}
	// Group 7 is not yet registered at b: its datagrams must vanish into
	// UnknownGroupDrops.
	for i := 0; i < 3; i++ {
		if err := a.Send(7, 2, probe); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().UnknownGroupDrops < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("unknown-group sections not counted: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// The reader survived: the registered sibling still delivers.
	if err := a.Send(1, 2, probe); err != nil {
		t.Fatal(err)
	}
	for {
		mu.Lock()
		n := got[1]
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registered group starved after unknown-group traffic")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if got[7] != 0 {
		t.Fatalf("unregistered group delivered %d msgs", got[7])
	}
	mu.Unlock()

	// Late registration: the early traffic is gone (UDP semantics), but
	// the group works from here on once it registers and references the
	// sender.
	register(t, b, 7, GroupHooks{Handler: count(7)})
	if err := b.AddPeer(7, 1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(7, 2, probe); err != nil {
		t.Fatal(err)
	}
	for {
		mu.Lock()
		n := got[7]
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late-registered group never received post-registration traffic")
		}
		time.Sleep(time.Millisecond)
	}
	drops := b.Stats().UnknownGroupDrops
	if drops != 3 {
		t.Fatalf("UnknownGroupDrops = %d, want exactly the 3 pre-registration sections", drops)
	}
	// Registering group 0 or a duplicate is a config error, not a panic.
	if err := b.Register(GroupControl, GroupHooks{}); err == nil {
		t.Fatal("registered the reserved control group")
	}
	if err := b.Register(1, GroupHooks{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestTransportChunking: a burst larger than the datagram budget splits
// into several datagrams, none oversize, nothing lost.
func TestTransportChunking(t *testing.T) {
	a, err := Listen(TransportConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.max = 600
	b, err := Listen(TransportConfig{Self: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.AddPeer(1, 2, b.LocalAddr().String())
	b.AddPeer(1, 1, a.LocalAddr().String())
	var mu sync.Mutex
	recv := 0
	register(t, b, 1, GroupHooks{Handler: func(_ seq.NodeID, ms []msg.Message) {
		mu.Lock()
		recv += len(ms)
		mu.Unlock()
	}})
	b.Start()
	var burst []msg.Message
	for i := 0; i < 40; i++ {
		burst = append(burst, &msg.Data{Group: 1, SourceNode: 1, LocalSeq: seq.LocalSeq(i + 1),
			OrderingNode: 1, GlobalSeq: seq.GlobalSeq(i + 1), Payload: make([]byte, 100)})
	}
	if err := a.Send(1, 2, burst...); err != nil {
		t.Fatal(err)
	}
	st := a.Stats().Peers[2]
	if st.SentDatagrams < 2 {
		t.Fatalf("expected chunking into multiple datagrams, got %d", st.SentDatagrams)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := recv
		mu.Unlock()
		if n == len(burst) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", n, len(burst))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTransportFaults: with Loss=1 nothing is handed up and drops are
// counted; with jitter every datagram is delayed but still delivered,
// and Close joins pending delayed deliveries.
func TestTransportFaults(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{Seed: 1, Loss: 1})
	delivered := make(chan struct{}, 64)
	register(t, b, 1, GroupHooks{Handler: func(seq.NodeID, []msg.Message) { delivered <- struct{}{} }})
	b.Start()
	for i := 0; i < 20; i++ {
		if err := a.Send(1, 2, &msg.Heartbeat{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().Peers[1].InjectedDrops == 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-delivered:
		t.Fatal("datagram delivered despite Loss=1")
	default:
	}
	if got := b.Stats().Peers[1].InjectedDrops; got != 20 {
		t.Fatalf("injected drops = %d, want 20", got)
	}

	c, d := pairUp(t, Faults{}, Faults{Seed: 2, Jitter: 5 * time.Millisecond})
	var mu sync.Mutex
	n := 0
	register(t, d, 1, GroupHooks{Handler: func(seq.NodeID, []msg.Message) { mu.Lock(); n++; mu.Unlock() }})
	d.Start()
	for i := 0; i < 10; i++ {
		c.Send(1, 2, &msg.Heartbeat{From: 1})
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		k := n
		mu.Unlock()
		if k == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jittered delivery %d/10", k)
		}
		time.Sleep(time.Millisecond)
	}
	st := d.Stats().Peers[1]
	if st.InjectedDelays != 10 {
		t.Fatalf("injected delays = %d, want 10", st.InjectedDelays)
	}
	// Close with fresh deliveries possibly in flight must not race the
	// handler (run with -race).
	c.Send(1, 2, &msg.Heartbeat{From: 1})
	d.Close()
	c.Close()
}

func TestTransportSequencingStats(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	got := make(chan uint64, 16)
	register(t, b, 1, GroupHooks{Handler: func(seq.NodeID, []msg.Message) { got <- 1 }})
	b.Start()
	// Three datagrams in order: no reorders, no gaps.
	for i := 0; i < 3; i++ {
		a.Send(1, 2, &msg.Heartbeat{From: 1})
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
	st := b.Stats().Peers[1]
	if st.OutOfOrder != 0 || st.GapsSeen != 0 {
		t.Fatalf("in-order stream miscounted: %+v", st)
	}
	if st.RecvDatagrams != 3 {
		t.Fatalf("recv datagrams = %d", st.RecvDatagrams)
	}
}

// TestTransportOneCallPerDatagram: a daemon's transport hands each
// datagram to its driver as one call, however many sections it carries.
// One datagram carries sections for three groups plus a second section
// for group 2 holding a Done. With the driver held, exactly one call
// queues for it; once released, all four hooks run before a call group
// 1's handler posts, i.e. inside that one call.
func TestTransportOneCallPerDatagram(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	for g := uint32(2); g <= 3; g++ {
		if err := b.AddPeer(g, 1, a.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDriver(sim.NewScheduler())
	d.Start()
	defer d.Stop()
	var ran []string // driver goroutine only
	marked := make(chan struct{})
	note := func(name string) Handler {
		return func(seq.NodeID, []msg.Message) { ran = append(ran, name) }
	}
	register(t, b, 1, GroupHooks{Handler: func(seq.NodeID, []msg.Message) {
		ran = append(ran, "g1")
		d.Call(func() {
			ran = append(ran, "marker")
			close(marked)
		})
	}})
	register(t, b, 2, GroupHooks{Handler: func(_ seq.NodeID, ms []msg.Message) {
		if _, done := ms[0].(*msg.Done); done {
			ran = append(ran, "done")
		} else {
			ran = append(ran, "g2")
		}
	}})
	register(t, b, 3, GroupHooks{Handler: note("g3")})
	b.startOn(d)

	// Hold the driver so the datagram's calls queue where they can be
	// counted.
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unhold := func() { once.Do(func() { close(release) }) }
	defer unhold() // runs before d.Stop, which waits for the held call
	d.Call(func() {
		close(held)
		<-release
	})
	<-held
	secs := []Section{
		{Group: 1, Msgs: []msg.Message{dataMsg(1)}},
		{Group: 2, Msgs: []msg.Message{dataMsg(2)}},
		{Group: 3, Msgs: []msg.Message{dataMsg(3)}},
		{Group: 2, Msgs: []msg.Message{&msg.Done{}}},
	}
	if err := a.SendSections(2, secs); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().Peers[2].SentDatagrams; n != 1 {
		t.Fatalf("four sections left in %d datagrams, want 1", n)
	}
	// The reader counts a datagram it cannot decode itself, so once it
	// has counted one sent next, it is done handing over the one before.
	junk, err := net.DialUDP("udp", nil, b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	junk.Write([]byte{0})
	junk.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().DecodeErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the reader never got past the datagram")
		}
		time.Sleep(time.Millisecond)
	}
	queued := len(d.calls)
	unhold()
	select {
	case <-marked:
	case <-time.After(5 * time.Second):
		t.Fatal("group 1's handler never ran")
	}
	var got []string
	d.CallWait(func() { got = append(got, ran...) })
	if queued != 1 {
		t.Fatalf("one datagram queued %d driver calls, want 1", queued)
	}
	if want := []string{"g1", "g2", "g3", "done", "marker"}; !slices.Equal(got, want) {
		t.Fatalf("hooks ran as %v, want %v", got, want)
	}
}

func TestTransportUnknownPeer(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	if err := a.Send(1, 99, &msg.Heartbeat{From: 1}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
	// b receives from an address whose From id it doesn't know.
	c, err := Listen(TransportConfig{Self: 77, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AddPeer(1, 2, b.LocalAddr().String())
	register(t, b, 1, GroupHooks{Handler: func(seq.NodeID, []msg.Message) {}})
	b.Start()
	c.Send(1, 2, &msg.Heartbeat{From: 77})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().RecvUnknown == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("unknown-sender datagram not counted: %+v", b.Stats())
}

// TestTimeSyncOffset: two loopback transports share a clock, so the
// NTP-lite estimate the scheduler-driven calibration collects must come
// out near zero (bounded by the measured round trip), every round must
// be answered, and pings — group 0 traffic — must never reach a group
// handler.
func TestTimeSyncOffset(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	da, db := NewDriver(sim.NewScheduler()), NewDriver(sim.NewScheduler())
	da.Start()
	db.Start()
	defer da.Stop()
	defer db.Stop()
	var leaked atomic.Int32
	sink := GroupHooks{Handler: func(seq.NodeID, []msg.Message) { leaked.Add(1) }}
	register(t, a, 1, sink)
	register(t, b, 1, sink)
	a.startOn(da)
	b.startOn(db)
	da.Call(func() { a.calibrate(da.sched, []seq.NodeID{2}) })
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Peers[2].RecvDatagrams < clockSyncRounds {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d pongs came back", a.Stats().Peers[2].RecvDatagrams, clockSyncRounds)
		}
		time.Sleep(time.Millisecond)
	}
	off, ok := a.OffsetOf(2)
	if !ok {
		t.Fatal("no clock-offset sample collected")
	}
	if off < -50*time.Millisecond || off > 50*time.Millisecond {
		t.Fatalf("same-host offset estimate %v implausibly large", off)
	}
	if n := b.Stats().Peers[1].RecvDatagrams; n != clockSyncRounds {
		t.Fatalf("%d pings arrived, want %d", n, clockSyncRounds)
	}
	if n := leaked.Load(); n != 0 {
		t.Fatalf("%d TimeSync frames leaked into a group handler", n)
	}
}

// TestTimeSyncLiveSample: a ping that waited in the socket of a peer not
// yet started is answered late, so its pong is not a live sample. The
// first datagram heard from the peer draws a ping of its own at once, and
// that ping's pong is. The calibration rounds after the first never run
// here, so the re-ping is the only way to a live sample.
func TestTimeSyncLiveSample(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	da, db := NewDriver(sim.NewScheduler()), NewDriver(sim.NewScheduler())
	da.Start()
	defer da.Stop()
	defer db.Stop()
	a.startOn(da)
	live := make(chan uint64, 1) // pongs a had taken from b when b went live
	da.CallWait(func() {
		// Round 0 leaves at once and waits in b's socket: b has no reader.
		a.calibrate(sim.NewScheduler(), []seq.NodeID{2})
		a.awaitLive([]seq.NodeID{2}, func() {
			a.mu.Lock()
			live <- a.peers[2].st.RecvDatagrams
			a.mu.Unlock()
		})
	})
	db.Start()
	b.startOn(db)
	var pongs uint64
	select {
	case pongs = <-live:
	case <-time.After(5 * time.Second):
		t.Fatalf("b never became live; a took %d datagrams from it", a.Stats().Peers[2].RecvDatagrams)
	}
	if pongs != 2 {
		t.Fatalf("b became live on the pong of datagram %d from it, want 2: the stale ping's pong must not count, the re-ping's must", pongs)
	}
	if n := b.Stats().Peers[1].RecvDatagrams; n != 2 {
		t.Fatalf("b took %d pings, want 2: the stale one and the re-ping", n)
	}
	if _, ok := a.OffsetOf(2); !ok {
		t.Fatal("no clock-offset sample collected")
	}
}

// TestRemovePeer: when the last group's reference to a peer goes, its
// frames count as unknown, sends to it fail, and its traffic history
// survives in the dead-peer aggregate. While another group still holds a
// reference, the peer entry (and the first group's OnUnknown routing)
// stays alive.
func TestRemovePeer(t *testing.T) {
	a, b := pairUp(t, Faults{}, Faults{})
	if err := a.AddPeer(2, 2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 16)
	unknown := make(chan struct{}, 16)
	register(t, a, 1, GroupHooks{
		Handler:   func(seq.NodeID, []msg.Message) { got <- struct{}{} },
		OnUnknown: func(seq.NodeID, []msg.Message) { unknown <- struct{}{} },
	})
	a.Start()
	b.Start()
	if err := b.Send(1, 1, &msg.Heartbeat{From: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-removal heartbeat never arrived")
	}

	// Group 1 drops its reference; group 2 still holds one, so the peer
	// entry survives and group-1 sections from it route to OnUnknown.
	a.RemovePeer(1, 2)
	if hasPeer(a, 1, 2) {
		t.Fatal("reference for group 1 kept after RemovePeer(1)")
	}
	if !hasPeer(a, 2, 2) {
		t.Fatal("sibling group's reference lost by another group's RemovePeer")
	}
	if err := a.Send(1, 2, &msg.Heartbeat{From: 1}); err != nil {
		t.Fatal("send with a live sibling reference failed:", err)
	}
	if err := b.Send(1, 1, &msg.Heartbeat{From: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unknown:
	case <-time.After(5 * time.Second):
		t.Fatal("unreffed group's section not routed to OnUnknown")
	}

	// The last reference goes: entry dies, stats fold into node 0.
	a.RemovePeer(2, 2)
	if hasPeer(a, 2, 2) {
		t.Fatal("reference for group 2 kept after RemovePeer(2)")
	}
	if err := a.Send(1, 2, &msg.Heartbeat{From: 1}); err == nil {
		t.Fatal("send to fully removed peer succeeded")
	}
	if st := a.Stats(); st.Peers[0].RecvDatagrams == 0 {
		t.Fatalf("removed peer's stats not aggregated: %+v", st)
	}
	pre := a.Stats().RecvUnknown
	if err := b.Send(1, 1, &msg.Heartbeat{From: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().RecvUnknown == pre {
		if time.Now().After(deadline) {
			t.Fatal("post-removal frame not counted as unknown")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnUnknownJoinPath: a frame from a sender outside the peer table
// reaches the group's OnUnknown hook — the transport half of the
// live-join path.
func TestOnUnknownJoinPath(t *testing.T) {
	a, err := Listen(TransportConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := Listen(TransportConfig{Self: 9, Listen: "127.0.0.1:0"})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); joiner.Close() })
	type unknownReq struct {
		from seq.NodeID
		msgs []msg.Message
	}
	reqs := make(chan unknownReq, 4)
	register(t, a, 1, GroupHooks{
		Handler:   func(seq.NodeID, []msg.Message) {},
		OnUnknown: func(from seq.NodeID, msgs []msg.Message) { reqs <- unknownReq{from, msgs} },
	})
	a.Start()
	joiner.Start()
	if err := joiner.AddPeer(1, 1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	want := &msg.JoinReq{Group: 1, Node: 9, Addr: joiner.LocalAddr().String()}
	if err := joiner.Send(1, 1, want); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-reqs:
		if r.from != 9 || len(r.msgs) != 1 {
			t.Fatalf("unexpected unknown delivery %+v", r)
		}
		jr, ok := r.msgs[0].(*msg.JoinReq)
		if !ok || jr.Node != 9 || jr.Addr != want.Addr {
			t.Fatalf("unexpected join request %+v", r.msgs[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("JoinReq from unknown sender never surfaced")
	}
}

// TestTransportDropMatrix: a windowed drop rule severs frames from the
// named peer only while the transport's uptime clock is inside the
// window, counts them in MatrixDrops, and never touches frames from
// other senders or arrivals after the window closes.
func TestTransportDropMatrix(t *testing.T) {
	a, err := Listen(TransportConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Listen(TransportConfig{Self: 3, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(TransportConfig{Self: 2, Listen: "127.0.0.1:0", Drops: []DropRule{
		{From: 1, FromMS: 0, UntilMS: 600, Prob: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close(); c.Close() })
	for _, p := range []struct {
		tr   *Transport
		id   seq.NodeID
		addr string
	}{
		{a, 2, b.LocalAddr().String()},
		{c, 2, b.LocalAddr().String()},
		{b, 1, a.LocalAddr().String()},
		{b, 3, c.LocalAddr().String()},
	} {
		if err := p.tr.AddPeer(1, p.id, p.addr); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[seq.NodeID]int{}
	register(t, b, 1, GroupHooks{Handler: func(f seq.NodeID, ms []msg.Message) {
		mu.Lock()
		got[f] += len(ms)
		mu.Unlock()
	}})
	b.Start()
	a.Start()
	c.Start()

	probe := &msg.Heartbeat{From: 1, Epoch: 1}
	// Inside the window: frames from 1 die at the matrix, frames from 3
	// pass — the rule is per-peer, not global.
	for i := 0; i < 5; i++ {
		if err := a.Send(1, 2, probe); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(1, 2, &msg.Heartbeat{From: 3, Epoch: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n3 := got[3]
		mu.Unlock()
		if n3 >= 5 && b.Stats().MatrixDrops >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-window: got[3]=%d matrixDrops=%d, want 5 and >=5", n3, b.Stats().MatrixDrops)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if got[1] != 0 {
		t.Fatalf("matrix leaked %d msgs from peer 1 inside the window", got[1])
	}
	mu.Unlock()
	inWindow := b.Stats().MatrixDrops

	// After the window: the same rule is inert and frames from 1 flow.
	time.Sleep(650 * time.Millisecond)
	for {
		if err := a.Send(1, 2, probe); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n1 := got[1]
		mu.Unlock()
		if n1 > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no frame from peer 1 arrived after the drop window expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := b.Stats().MatrixDrops; d != inWindow {
		t.Fatalf("matrix dropped %d frames after its window closed", d-inWindow)
	}
}
