package membership

import (
	"testing"

	"repro/internal/seq"
	"repro/internal/sim"
)

// TestDetectorFlapReset drives the detector through suspect→alive→suspect
// races and checks that a heartbeat from a suspect fully resets its
// detector state: the suspicion flag and the silence clock. A flapping
// peer must stay silent a whole threshold again before it is suspected.
func TestDetectorFlapReset(t *testing.T) {
	const threshold = 100 * sim.Millisecond
	const peer = seq.NodeID(7)

	type step struct {
		at    sim.Time // event time
		heard bool     // true = heartbeat arrives, false = Silent sweep
		// expectations after a sweep step:
		wantSilent    bool
		wantSuspected bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "silence accumulates strikes",
			steps: []step{
				{at: 50 * sim.Millisecond, wantSilent: false},
				{at: 150 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 250 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 350 * sim.Millisecond, wantSilent: true, wantSuspected: true},
			},
		},
		{
			name: "heartbeat before threshold keeps peer clean",
			steps: []step{
				{at: 80 * sim.Millisecond, heard: true},
				{at: 150 * sim.Millisecond, wantSilent: false},
				{at: 180 * sim.Millisecond, wantSilent: false},
			},
		},
		{
			name: "flap resets strikes to zero",
			steps: []step{
				{at: 150 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 250 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 300 * sim.Millisecond, heard: true}, // suspect speaks again
				{at: 350 * sim.Millisecond, wantSilent: false},
				// Second episode: suspected again only a threshold after it spoke.
				{at: 450 * sim.Millisecond, wantSilent: true, wantSuspected: true},
			},
		},
		{
			name: "rapid suspect-alive-suspect race",
			steps: []step{
				{at: 150 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 151 * sim.Millisecond, heard: true},
				{at: 152 * sim.Millisecond, wantSilent: false},
				{at: 260 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 261 * sim.Millisecond, heard: true},
				{at: 262 * sim.Millisecond, wantSilent: false},
				{at: 370 * sim.Millisecond, wantSilent: true, wantSuspected: true},
			},
		},
		{
			name: "heartbeat between sweeps clears suspicion immediately",
			steps: []step{
				{at: 150 * sim.Millisecond, wantSilent: true, wantSuspected: true},
				{at: 200 * sim.Millisecond, heard: true},
				// No sweep ran yet, but Heard alone must already have
				// cleared the flag (step checks below run after every step).
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(threshold)
			d.Watch(peer, 0)
			for i, s := range tc.steps {
				if s.heard {
					d.Heard(peer, s.at)
					if d.Suspected(peer) {
						t.Fatalf("step %d: still suspected right after Heard", i)
					}
					continue
				}
				silent := d.Silent(s.at)
				isSilent := len(silent) == 1 && silent[0] == peer
				if isSilent != s.wantSilent {
					t.Fatalf("step %d (t=%v): silent = %v, want %v", i, s.at, isSilent, s.wantSilent)
				}
				if got := d.Suspected(peer); got != s.wantSuspected {
					t.Fatalf("step %d (t=%v): suspected = %v, want %v", i, s.at, got, s.wantSuspected)
				}
			}
		})
	}
}

// TestDetectorForgetClearsSuspicion checks Forget drops the peer's
// suspicion and its silence clock, so a re-watched peer starts a
// brand-new episode.
func TestDetectorForgetClearsSuspicion(t *testing.T) {
	const threshold = 100 * sim.Millisecond
	const peer = seq.NodeID(3)
	d := NewDetector(threshold)
	d.Watch(peer, 0)
	if got := d.Silent(150 * sim.Millisecond); len(got) != 1 {
		t.Fatalf("silent = %v, want [%d]", got, peer)
	}
	d.Forget(peer)
	if silent := d.Silent(190 * sim.Millisecond); len(silent) != 0 || d.Suspected(peer) {
		t.Fatalf("state survived Forget: silent=%v suspected=%v", silent, d.Suspected(peer))
	}
	// Re-watch at a later time: full fresh window before suspicion.
	d.Watch(peer, 200*sim.Millisecond)
	if got := d.Silent(250 * sim.Millisecond); len(got) != 0 {
		t.Fatalf("re-watched peer suspected early: %v", got)
	}
}
