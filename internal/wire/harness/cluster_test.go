package harness

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
)

// TestMain doubles as the ringnetd child entry point: when
// RINGNETD_CONFIG is set, this test binary IS a ring member — it runs
// the same wire.Run the real cmd/ringnetd runs and exits. The parent
// test spawns N copies of itself this way, so the multi-process cluster
// needs no pre-built binary (and inherits -race instrumentation from
// the test build).
func TestMain(m *testing.M) {
	if cfg := os.Getenv("RINGNETD_CONFIG"); cfg != "" {
		if _, err := wire.RunFromFile(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func selfExec(t *testing.T) func(cfgPath string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(cfgPath string) *exec.Cmd {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), "RINGNETD_CONFIG="+cfgPath)
		return cmd
	}
}

// TestClusterTotalOrderUnderLoss is the acceptance test for the wire
// subsystem: a 4-process ringnetd cluster on loopback UDP with 2%
// injected datagram loss and 2ms injected jitter at every member must
// deliver the identical total order everywhere (delivery-order hash
// equality) within a bounded wall-clock deadline.
func TestClusterTotalOrderUnderLoss(t *testing.T) {
	if testing.Short() {
		// The dedicated wire-cluster CI job runs this without -short;
		// short-gating keeps the blanket -race job from paying for the
		// multi-process cluster twice.
		t.Skip("4-process cluster in -short")
	}
	members, err := Run(Options{
		Nodes:      4,
		Count:      120,
		RateHz:     400,
		Payload:    48,
		Loss:       0.02,
		JitterUS:   2000,
		Seed:       7,
		StartMS:    300,
		DeadlineMS: 60000,
		Dir:        t.TempDir(),
		Command:    selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	expected := uint64(4 * 120)
	var drops uint64
	for _, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: %+v\nstderr: %s", m.ID, r, m.Stderr)
		}
		if r.Delivered != expected {
			t.Fatalf("member %v delivered %d, want %d", m.ID, r.Delivered, expected)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("member %v order violation: %s", m.ID, r.Single().OrderErr)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("total order diverged: member %v hash %s, member %v hash %s",
				m.ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
		for _, p := range r.Transport.Peers {
			drops += p.InjectedDrops
		}
		t.Logf("member %v: delivered %d order=%s wall=%dms lat(mean/p99)=%.2f/%.2fms ctrl %dB data %dB",
			m.ID, r.Delivered, r.Single().OrderHash, r.WallMS, r.Single().LatencyMeanMS, r.Single().LatencyP99MS,
			r.Single().Control.ControlBytes, r.Single().Control.DataBytes)
	}
	if drops == 0 {
		t.Fatal("2% injected loss never dropped a datagram — the recovery path went unexercised")
	}
}

// TestClusterMultiGroupSoak is the federation acceptance test: four
// ringnetd processes each hosting one hundred independent ordering
// groups over a single shared UDP socket per process. Every group must
// converge to its own single total order — hash-identical and trace-
// identical across all four members — while the daemon aggregate tiles
// the per-group deliveries. Distinct groups must produce distinct
// orders (demux isolation), and outbound coalescing must pack the
// hundred groups' traffic into far fewer datagrams than messages.
func TestClusterMultiGroupSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("4-process 100-group soak in -short")
	}
	// RINGNET_SOAK_GROUPS scales the soak down for debugging on starved
	// hardware; CI runs the full hundred.
	nGroups := 100
	if v, err := strconv.Atoi(os.Getenv("RINGNET_SOAK_GROUPS")); err == nil && v > 0 {
		nGroups = v
	}
	groups := make([]wire.GroupConfig, nGroups)
	for i := range groups {
		// Stagger the streams a little so the shared outbox sees
		// genuinely interleaved traffic, not one synchronized burst.
		groups[i] = wire.GroupConfig{
			ID:      uint32(i + 1),
			Count:   3 + i%3,
			StartMS: int64(250 + (i%10)*25),
		}
	}
	members, err := Run(Options{
		Nodes:      4,
		RateHz:     200,
		Payload:    32,
		Seed:       53,
		DeadlineMS: 120000,
		Groups:     groups,
		Trace:      true,
		Dir:        t.TempDir(),
		Command:    selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	for _, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: delivered=%d groups=%d\nstderr: %s",
				m.ID, r.Delivered, len(r.Groups), m.Stderr)
		}
		if len(r.Groups) != nGroups {
			t.Fatalf("member %v reports %d groups, hosts %d", m.ID, len(r.Groups), nGroups)
		}
		var sum uint64
		for _, g := range r.Groups {
			if !g.Converged || g.Delivered != g.Expected || g.OrderErr != "" {
				t.Fatalf("member %v group %d: converged=%v delivered=%d/%d orderErr=%q",
					m.ID, g.Group, g.Converged, g.Delivered, g.Expected, g.OrderErr)
			}
			sum += g.Delivered
		}
		if r.Delivered != sum {
			t.Fatalf("member %v aggregate delivered %d != per-group sum %d", m.ID, r.Delivered, sum)
		}
		if r.Transport.UnknownGroupDrops != 0 {
			t.Fatalf("member %v dropped %d sections as unknown-group — every group was registered",
				m.ID, r.Transport.UnknownGroupDrops)
		}
		// Outbox efficiency is logged, not gated: this workload is
		// dominated by per-group token hops (urgent, latency-first
		// flushes), so the msgs-per-datagram ratio here floors near 1;
		// the throughput-workload coalescing numbers live in
		// PERFORMANCE.md.
		var sentDg, sentMsgs uint64
		for _, p := range r.Transport.Peers {
			sentDg += p.SentDatagrams
			sentMsgs += p.SentMsgs
		}
		t.Logf("member %v: %d groups, delivered=%d, %d msgs in %d datagrams (%.1f msgs/dg), wall=%dms",
			m.ID, len(r.Groups), r.Delivered, sentMsgs, sentDg,
			float64(sentMsgs)/float64(sentDg), r.WallMS)
	}
	// Per-group: hash equality across members and line-for-line
	// identical delivery traces. (Groups with identical workload shapes
	// may legitimately converge to the same order, so hashes are not
	// required to be distinct across groups — isolation is proven by the
	// per-group expected counts and traces.)
	for _, gc := range groups {
		ref := members[0].Group(gc.ID)
		if ref == nil {
			t.Fatalf("member 1 has no report for group %d", gc.ID)
		}
		refTrace := readTrace(t, members[0].TracePaths[gc.ID])
		if len(refTrace) == 0 {
			t.Fatalf("group %d delivered nothing at member 1", gc.ID)
		}
		for _, m := range members[1:] {
			g := m.Group(gc.ID)
			if g == nil || g.OrderHash != ref.OrderHash {
				t.Fatalf("group %d order diverged at member %v", gc.ID, m.ID)
			}
			got := readTrace(t, m.TracePaths[gc.ID])
			if len(got) != len(refTrace) {
				t.Fatalf("group %d trace at member %v has %d lines, member 1 has %d",
					gc.ID, m.ID, len(got), len(refTrace))
			}
			for j, l := range got {
				if refTrace[j] != l {
					t.Fatalf("group %d trace diverged at member %v line %d: %q vs %q",
						gc.ID, m.ID, j, l, refTrace[j])
				}
			}
		}
	}
}

// TestHarnessReportsChildFailure: a member that cannot parse its config
// must surface as a harness error, not hang the cluster.
func TestHarnessReportsChildFailure(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{
		Nodes:      2,
		Count:      5,
		RateHz:     100,
		DeadlineMS: 5000,
		Dir:        t.TempDir(),
		Command: func(cfgPath string) *exec.Cmd {
			cmd := exec.Command(exe, "-test.run=^$")
			cmd.Env = append(os.Environ(), "RINGNETD_CONFIG="+cfgPath+".missing")
			return cmd
		},
	})
	if err == nil {
		t.Fatal("harness succeeded with children that exited on a missing config")
	}
}

// readTrace loads a member's delivery-trace lines ("global source local").
func readTrace(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSpace(string(b))
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// TestClusterSurvivesCrash is the failover acceptance test: one member
// of a 5-process live cluster with injected loss and jitter is
// SIGKILLed mid-run. The survivors must detect the crash, evict it at a
// new membership epoch, repair the ring (regenerating the ordering
// token if the corpse held it), and still converge to the identical
// delivery-order hash everywhere.
func TestClusterSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("5-process chaos cluster in -short")
	}
	members, err := Run(Options{
		Nodes:       5,
		Count:       100,
		RateHz:      150,
		Payload:     48,
		Loss:        0.01,
		JitterUS:    1000,
		Seed:        11,
		StartMS:     300,
		DeadlineMS:  90000,
		Live:        true,
		HeartbeatMS: 150,
		SuspectMS:   2500, // must exceed worst-case process spawn stagger under CI load
		IdleMS:      1500,
		Specs: map[int]Spec{
			// Mid-sending: member 5's 100 messages go out over 660 ms
			// from its stream's opening, once every peer answers a clock
			// probe and 300 ms after launch at the latest.
			4: {KillAfterMS: 450},
		},
		Dir:     t.TempDir(),
		Command: selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	if !members[4].Killed || members[4].Err == nil {
		t.Fatalf("member 5 was not killed as specified: killed=%v err=%v",
			members[4].Killed, members[4].Err)
	}
	var drops uint64
	for i := 0; i < 4; i++ {
		r := members[i].Report
		if !r.Converged {
			t.Fatalf("survivor %v did not converge: %+v\nstderr: %s", members[i].ID, r, members[i].Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("survivor %v order violation: %s", members[i].ID, r.Single().OrderErr)
		}
		if r.Single().Epoch < 2 {
			t.Fatalf("survivor %v never applied an eviction epoch: %+v", members[i].ID, r)
		}
		if r.Single().Members != 4 {
			t.Fatalf("survivor %v final membership %d, want 4", members[i].ID, r.Single().Members)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("survivors diverged: member %v hash %s, member %v hash %s",
				members[i].ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
		if r.Delivered < 400 {
			t.Fatalf("survivor %v delivered only %d (own traffic alone is 400)", members[i].ID, r.Delivered)
		}
		for _, p := range r.Transport.Peers {
			drops += p.InjectedDrops
		}
		t.Logf("survivor %v: delivered=%d order=%s epoch=%d maxGap=%.0fms crossLat=%.2fms wall=%dms",
			members[i].ID, r.Delivered, r.Single().OrderHash, r.Single().Epoch, r.Single().MaxGapMS, r.Single().CrossLatMeanMS, r.WallMS)
	}
	if drops == 0 {
		t.Fatal("1% injected loss never dropped a datagram — the recovery path went unexercised")
	}
}

// TestClusterLateJoin: a fresh process joins a running lossy 4-process
// ring mid-stream (JoinReq → RingUpdate), sources its own traffic, and
// must observe a consistent suffix of the total order: its delivery
// trace is exactly the tail of every steady member's trace.
func TestClusterLateJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("5-process chaos cluster in -short")
	}
	members, err := Run(Options{
		Nodes:       5,
		Count:       150,
		RateHz:      150,
		Payload:     48,
		Loss:        0.01,
		JitterUS:    1000,
		Seed:        23,
		StartMS:     300,
		DeadlineMS:  90000,
		Live:        true,
		HeartbeatMS: 150,
		SuspectMS:   2500, // must exceed worst-case process spawn stagger under CI load
		IdleMS:      1500,
		Trace:       true,
		Specs: map[int]Spec{
			// The bootstrap stream runs ~1 s from its opening, which is
			// 300 ms after launch at the latest: the join lands inside it.
			4: {Join: true, StartAfterMS: 600, Count: 40},
		},
		Dir:     t.TempDir(),
		Command: selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	for i, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: %+v\nstderr: %s", m.ID, r, m.Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("member %v order violation: %s", m.ID, r.Single().OrderErr)
		}
		if r.Single().Members != 5 {
			t.Fatalf("member %v final membership %d, want 5", m.ID, r.Single().Members)
		}
		if i < 4 && r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("steady members diverged: %s vs %s", r.Single().OrderHash, members[0].Report.Single().OrderHash)
		}
	}
	joiner := members[4].Report
	if joiner.Single().FirstGlobal <= 1 {
		t.Fatalf("joiner started at global %d — not a mid-stream join", joiner.Single().FirstGlobal)
	}
	ref := readTrace(t, members[0].TracePath)
	jt := readTrace(t, members[4].TracePath)
	if len(jt) == 0 || len(jt) > len(ref) {
		t.Fatalf("joiner trace %d lines, reference %d", len(jt), len(ref))
	}
	start := len(ref) - len(jt)
	for i, l := range jt {
		if ref[start+i] != l {
			t.Fatalf("joiner suffix diverged at line %d: %q vs %q", i, l, ref[start+i])
		}
	}
	own := 0
	for _, l := range ref {
		if strings.Split(l, " ")[1] == "5" {
			own++
		}
	}
	if own != 40 {
		t.Fatalf("steady members delivered %d of the joiner's 40 messages", own)
	}
	t.Logf("joiner: %d-line suffix from global %d, epoch=%d; steady members delivered %d",
		len(jt), joiner.Single().FirstGlobal, joiner.Single().Epoch, len(ref))
}

// TestClusterGracefulLeaveSIGTERM: SIGTERM to a live member is a
// graceful leave — announce, drain, hand off a held token — not a
// silent death. The leaver must exit zero with Left set and a delivered
// stream that is a prefix of the survivors'; nothing it submitted may
// be lost.
func TestClusterGracefulLeaveSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("3-process chaos cluster in -short")
	}
	members, err := Run(Options{
		Nodes:       3,
		Count:       120,
		RateHz:      150,
		Payload:     48,
		Loss:        0.005,
		JitterUS:    500,
		Seed:        31,
		StartMS:     300,
		DeadlineMS:  90000,
		Live:        true,
		HeartbeatMS: 150,
		SuspectMS:   2500, // must exceed worst-case process spawn stagger under CI load
		IdleMS:      1500,
		Trace:       true,
		Specs: map[int]Spec{
			// SIGTERM lands after its 50 msgs went out (327 ms from the
			// stream's opening, which is 300 ms after launch at the
			// latest) and while the others still send (793 ms from it).
			2: {TermAfterMS: 700, Count: 50},
		},
		Dir:     t.TempDir(),
		Command: selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	leaver := members[2].Report
	if !leaver.Single().Left {
		t.Fatalf("SIGTERMed member did not leave gracefully: %+v\nstderr: %s",
			leaver, members[2].Stderr)
	}
	for i := 0; i < 2; i++ {
		r := members[i].Report
		if !r.Converged || r.Single().OrderErr != "" {
			t.Fatalf("survivor %v: %+v", members[i].ID, r)
		}
		if r.Single().Epoch < 2 {
			t.Fatalf("survivor %v never applied the leave epoch: %+v", members[i].ID, r)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			a := readTrace(t, members[0].TracePath)
			b := readTrace(t, members[i].TracePath)
			for j := 0; j < len(a) || j < len(b); j++ {
				var la, lb string
				if j < len(a) {
					la = a[j]
				}
				if j < len(b) {
					lb = b[j]
				}
				if la != lb {
					t.Logf("first divergence at line %d: member1=%q member%d=%q", j, la, i+1, lb)
					break
				}
			}
			t.Fatalf("survivors diverged: member1 %s (%d) vs member%d %s (%d)",
				members[0].Report.Single().OrderHash, len(a), i+1, r.Single().OrderHash, len(b))
		}
	}
	ref := readTrace(t, members[0].TracePath)
	lt := readTrace(t, members[2].TracePath)
	if len(lt) == 0 || len(lt) > len(ref) {
		t.Fatalf("leaver trace %d lines, reference %d", len(lt), len(ref))
	}
	for i, l := range lt {
		if ref[i] != l {
			t.Fatalf("leaver trace diverged at line %d: %q vs %q", i, l, ref[i])
		}
	}
	own := 0
	for _, l := range ref {
		if strings.Split(l, " ")[1] == "3" {
			own++
		}
	}
	if own != 50 {
		t.Fatalf("survivors delivered %d of the leaver's 50 submitted messages", own)
	}
	t.Logf("leaver: clean prefix of %d/%d lines, survivors epoch=%d",
		len(lt), len(ref), members[0].Report.Single().Epoch)
}

// TestClusterPartitionHeal: the network splits a 5-process cluster 3/2
// for seven seconds. The majority side must form a quorum, evict the
// unreachable pair at a new epoch, and keep ordering traffic; the
// minority side must detect the loss of quorum and park in the
// read-only lame ring (delivering nothing new). When the drop matrix
// expires, the lame side's probe heartbeats cross the healed link, the
// sides exchange ring summaries, and the quorum coordinator splices the
// minority back in. All five members must converge to one order hash
// with line-for-line identical delivery traces.
func TestClusterPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("5-process partition cluster in -short")
	}
	// Sizing matters: the whole run must stay under the token's
	// CompactKeep window (1024 globals) so the post-heal token still
	// carries every assignment the minority missed — that is what lets
	// the rejoined pair discover the full gap and Nack-repair it into
	// a complete, identical trace. 3×200 + 2×50 = 700 globals.
	members, err := Run(Options{
		Nodes:       5,
		Count:       200,
		RateHz:      60,
		Payload:     48,
		Seed:        41,
		StartMS:     500,
		DeadlineMS:  45000,
		Live:        true,
		HeartbeatMS: 100,
		SuspectMS:   2500, // must exceed worst-case process spawn stagger under CI load
		LameMS:      1500,
		IdleMS:      2500, // heal at 6.5s must land before the majority latches Done
		Trace:       true,
		Splits: []SplitWindow{
			{A: []int{0, 1, 2}, B: []int{3, 4}, FromMS: 2000, UntilMS: 6500},
		},
		Specs: map[int]Spec{
			// The minority pair finishes sourcing before the cut so the
			// lame ring holds a committed prefix, not in-flight traffic.
			3: {Count: 50},
			4: {Count: 50},
		},
		Dir:     t.TempDir(),
		Command: selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	var matrixDrops, merges uint64
	var healUS int64
	for i, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: %+v\nstderr: %s", m.ID, r, m.Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("member %v order violation: %s", m.ID, r.Single().OrderErr)
		}
		if r.Single().Members != 5 {
			t.Fatalf("member %v final membership %d, want 5", m.ID, r.Single().Members)
		}
		if r.Single().Epoch < 3 {
			// eviction epoch(s) during the cut plus the merge epoch
			t.Fatalf("member %v finished at epoch %d — partition never reconfigured the ring", m.ID, r.Single().Epoch)
		}
		if r.Single().Lame {
			t.Fatalf("member %v is still parked in the lame ring after heal: %+v", m.ID, r)
		}
		if r.Single().LameDeliveries != 0 {
			t.Fatalf("member %v delivered %d messages while lame — the lame ring must be read-only",
				m.ID, r.Single().LameDeliveries)
		}
		if i >= 3 {
			if r.Single().LameEntries == 0 {
				t.Fatalf("minority member %v never entered the lame ring: %+v", m.ID, r)
			}
			if r.Single().LameMS <= 0 {
				t.Fatalf("minority member %v reports no parked time: %+v", m.ID, r)
			}
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("member %v hash %s diverged from member %v hash %s",
				m.ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
		matrixDrops += r.Transport.MatrixDrops
		merges += r.Single().Merges
		if r.Single().HealUS > healUS {
			healUS = r.Single().HealUS
		}
		t.Logf("member %v: delivered=%d epoch=%d lameEntries=%d lameMS=%d merges=%d healUS=%d wall=%dms",
			m.ID, r.Delivered, r.Single().Epoch, r.Single().LameEntries, r.Single().LameMS, r.Single().Merges, r.Single().HealUS, r.WallMS)
	}
	if matrixDrops == 0 {
		t.Fatal("drop matrix never dropped a frame — the partition was not induced")
	}
	if merges == 0 {
		t.Fatal("no member coordinated a ring merge — the heal path went unexercised")
	}
	if healUS <= 0 {
		t.Fatal("no member measured a heal latency")
	}
	// Line-for-line identical traces: everyone started at global 1, so
	// full equality, not suffix containment.
	ref := readTrace(t, members[0].TracePath)
	if len(ref) == 0 {
		t.Fatal("member 1 delivered nothing")
	}
	for i := 1; i < 5; i++ {
		got := readTrace(t, members[i].TracePath)
		if len(got) != len(ref) {
			t.Fatalf("member %d trace %d lines, member 1 has %d", i+1, len(got), len(ref))
		}
		for j, l := range got {
			if ref[j] != l {
				t.Fatalf("member %d trace diverged at line %d: %q vs %q", i+1, j, l, ref[j])
			}
		}
	}
	t.Logf("partition healed: %d matrix drops, %d merge epochs, worst heal latency %dus, %d-line common trace",
		matrixDrops, merges, healUS, len(ref))
}

// TestClusterRestartResumesAtDurableFront is the durability acceptance
// test: a member of a live 4-process cluster runs with a data_dir, is
// SIGKILLed mid-stream, and is respawned against the same directory
// while the stream is still flowing. The restarted process must recover
// its durable front from the on-disk log, rejoin through the resume
// path (not a baseline fresh join), backfill exactly the globals it
// missed while dead, and converge to the cluster's order hash with a
// trace byte-identical to the steady members' — the recovered prefix
// and the resumed suffix splice into one stream with no duplicate and
// no missing delivery.
func TestClusterRestartResumesAtDurableFront(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process restart cluster in -short")
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "node4-data")
	members, err := Run(Options{
		Nodes:       4,
		Count:       1300,
		RateHz:      100,
		Payload:     48,
		Loss:        0.01,
		JitterUS:    1000,
		Seed:        31,
		StartMS:     300,
		DeadlineMS:  90000,
		Live:        true,
		HeartbeatMS: 150,
		SuspectMS:   2500, // must exceed worst-case process spawn stagger under CI load
		IdleMS:      1500,
		Trace:       true,
		Specs: map[int]Spec{
			// Killed mid-stream at 2.5s, respawned at 8s: the eviction
			// (suspect + quorum) completes in between, and the ~5.5s dead
			// window costs ~1650 globals — well inside the resume horizon
			// (3/4 of the 4096-slot retained window), so the coordinator
			// must grant a resume, not a fresh baseline join.
			3: {KillAfterMS: 2500, RestartAfterMS: 8000, DataDir: dataDir},
		},
		Dir:     dir,
		Command: selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	for _, m := range members {
		r := m.Report
		if !r.Converged {
			t.Fatalf("member %v did not converge: %+v\nstderr: %s", m.ID, r, m.Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("member %v order violation: %s", m.ID, r.Single().OrderErr)
		}
		if r.Single().StoreErr != "" {
			t.Fatalf("member %v durable-plane error: %s", m.ID, r.Single().StoreErr)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("order diverged: member %v hash %s, member %v hash %s",
				m.ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
	}
	rr := members[3].Report.Single()
	if rr.ResumedAt == 0 {
		t.Fatalf("restarted member joined fresh, not via resume: %+v\nstderr: %s", rr, members[3].Stderr)
	}
	if lo, hi, ok := members[3].Report.Single().Discarded(); ok {
		t.Fatalf("restarted member discarded [%d, %d] — the gap was inside the horizon and must be repaired", lo, hi)
	}
	// No redelivery of the recovered prefix: the second incarnation's
	// first delivery is exactly the durable front's successor.
	if rr.FirstGlobal != rr.ResumedAt+1 {
		t.Fatalf("restarted member first delivery %d, want resume front %d + 1", rr.FirstGlobal, rr.ResumedAt)
	}
	if rr.Epoch < 3 {
		t.Fatalf("restarted member final epoch %d — bootstrap, eviction, and rejoin make at least 3", rr.Epoch)
	}
	// The trace must be the full stream: recovered prefix replayed from
	// the log, then the resumed suffix — byte-identical to a steady
	// member's trace, not just a tail of it.
	ref := readTrace(t, members[0].TracePath)
	rt := readTrace(t, members[3].TracePath)
	if len(rt) != len(ref) {
		t.Fatalf("restarted member trace %d lines, steady member %d", len(rt), len(ref))
	}
	for i := range ref {
		if rt[i] != ref[i] {
			t.Fatalf("restarted member trace diverged at line %d: %q vs %q", i, rt[i], ref[i])
		}
	}
	// The on-disk log must agree with the report: its recovered front is
	// the member's last delivered global.
	dl, err := store.OpenFileLog(filepath.Join(dataDir, "g1"), store.FileLogOptions{})
	if err != nil {
		t.Fatalf("reopen durable log: %v", err)
	}
	defer dl.Close()
	if got, want := uint64(dl.RecoveredFront()), rr.LastGlobal; got != want {
		t.Fatalf("durable log front %d, report last global %d", got, want)
	}
	t.Logf("restarted member: resumed_at=%d first=%d last=%d epoch=%d dlq=%d trace=%d lines",
		rr.ResumedAt, rr.FirstGlobal, rr.LastGlobal, rr.Epoch, rr.DLQEntries, len(rt))
}

// TestClusterReallyLostLandsInDLQ forces the really-lost path on the
// wire and checks the dead-letter plumbing end to end. Orderings and
// bodies share every ring link (the token follows the same successor
// chain the data stream does), so datagram drops can never starve the
// ring of one member's bodies without also stopping its orderings; the
// body-targeted drop matrix can. From 600ms on, every survivor strips
// member 4's payloads out of whatever frames carry them, so its bodies
// never replicate — while the circulating token keeps assigning them
// global slots and spreading those assignments ring-wide. Killing 4
// then destroys the only copies: the survivors hold assigned,
// body-less slots with no live holder, must give the repair up under
// the really-lost rule once 4 is evicted, keep one identical total
// order, and tombstone the lost globals in their on-disk DLQs. The
// DLQ must then round-trip: entries listed, replayed exactly once past
// a durable cursor, purged clean.
func TestClusterReallyLostLandsInDLQ(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos cluster in -short")
	}
	dir := t.TempDir()
	dataDirs := map[int]string{}
	specs := map[int]Spec{
		3: {KillAfterMS: 800},
	}
	// The strip window must CLOSE between the victim's death and its
	// eviction: receiver uptime clocks skew by the spawn stagger, so a
	// body can slip to one survivor before its window opens — and a
	// window left open forever would let that survivor deliver a
	// global its peers (unable to ever receive his repair answers)
	// tombstone, wedging the convergence barrier on divergent hashes.
	// Closed in time, live-held stragglers repair everywhere before
	// anyone may give up, and only bodies NO live member holds are
	// tombstoned — which is the really-lost semantics being tested.
	for i := 0; i < 3; i++ {
		dataDirs[i] = filepath.Join(dir, fmt.Sprintf("node%d-data", i+1))
		specs[i] = Spec{
			DataDir: dataDirs[i],
			Drops:   []wire.DropRule{{DataSource: 4, FromMS: 600, UntilMS: 2500, Prob: 1}},
		}
	}
	members, err := Run(Options{
		Nodes:       4,
		Count:       450,
		RateHz:      150,
		Payload:     48,
		Loss:        0.01,
		JitterUS:    1000,
		Seed:        43,
		StartMS:     300,
		DeadlineMS:  90000,
		Live:        true,
		HeartbeatMS: 150,
		SuspectMS:   3000,
		IdleMS:      1500,
		Specs:       specs,
		Dir:         dir,
		Command:     selfExec(t),
	})
	if err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	if !members[3].Killed {
		t.Fatal("member 4 was not killed as specified")
	}
	totalDLQ := 0
	for i := 0; i < 3; i++ {
		r := members[i].Report
		if !r.Converged {
			t.Fatalf("survivor %v did not converge: %+v\nstderr: %s", members[i].ID, r, members[i].Stderr)
		}
		if r.Single().OrderErr != "" {
			t.Fatalf("survivor %v order violation: %s", members[i].ID, r.Single().OrderErr)
		}
		if r.Single().StoreErr != "" {
			t.Fatalf("survivor %v durable-plane error: %s", members[i].ID, r.Single().StoreErr)
		}
		if r.Single().OrderHash != members[0].Report.Single().OrderHash {
			t.Fatalf("survivors diverged: member %v hash %s, member %v hash %s",
				members[i].ID, r.Single().OrderHash, members[0].ID, members[0].Report.Single().OrderHash)
		}
		totalDLQ += r.Single().DLQEntries
		t.Logf("survivor %v: delivered=%d dlq_entries=%d epoch=%d",
			members[i].ID, r.Delivered, r.Single().DLQEntries, r.Single().Epoch)
	}
	if totalDLQ == 0 {
		t.Fatal("no survivor tombstoned a really-lost message — the forced give-up scenario never fired")
	}

	// Round-trip the on-disk queue of a survivor that recorded losses —
	// the same store calls the ringnet-dlq CLI wraps.
	for i := 0; i < 3; i++ {
		if members[i].Report.Single().DLQEntries == 0 {
			continue
		}
		q, err := store.OpenDLQ(filepath.Join(dataDirs[i], "g1"))
		if err != nil {
			t.Fatalf("reopen survivor %d DLQ: %v", i+1, err)
		}
		if got, want := q.Len(), members[i].Report.Single().DLQEntries; got != want {
			t.Fatalf("survivor %d DLQ holds %d entries on disk, report says %d", i+1, got, want)
		}
		entries, err := q.Entries()
		if err != nil {
			t.Fatalf("survivor %d DLQ entries: %v", i+1, err)
		}
		for _, e := range entries {
			// Source 0 = the assignment itself died with the victims
			// (hard-tier give-up on an unresolvable slot).
			if e.Global == 0 || (e.Source != 4 && e.Source != 0) {
				t.Fatalf("survivor %d tombstone names global %d source %d — only the doomed member's stream can be really lost here", i+1, e.Global, e.Source)
			}
			switch e.Reason {
			case "give-up", "front-gap", "skip":
			default:
				t.Fatalf("survivor %d tombstone has unknown reason %q", i+1, e.Reason)
			}
		}
		replayed := 0
		n, err := q.Replay(func(store.DLQEntry) error { replayed++; return nil })
		if err != nil || n != len(entries) || replayed != n {
			t.Fatalf("survivor %d replay: n=%d replayed=%d err=%v, want %d", i+1, n, replayed, err, len(entries))
		}
		if n, err = q.Replay(func(store.DLQEntry) error { return nil }); err != nil || n != 0 {
			t.Fatalf("survivor %d second replay emitted %d entries (err=%v) — the cursor did not hold", i+1, n, err)
		}
		if err := q.Purge(); err != nil {
			t.Fatalf("survivor %d purge: %v", i+1, err)
		}
		if q.Len() != 0 || q.Cursor() != 0 {
			t.Fatalf("survivor %d purge left %d entries, cursor %d", i+1, q.Len(), q.Cursor())
		}
		q.Close()
		t.Logf("survivor %d: %d tombstones listed, replayed once, purged", i+1, len(entries))
		break
	}
}
