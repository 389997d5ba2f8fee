package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestHarnessSingleGroupConfig pins what a cluster with Options.Groups
// empty hands each daemon: one group, id 1, inheriting the daemon-level
// stream fields, joining per Spec.Join, persisting under <DataDir>/g1
// (the path bench/check.go reopens) and tracing to Dir/trace<i> with no
// group suffix. The config is taken through the file format Run writes
// and the strict loader the daemon reads it with, then compared field
// for field after Normalize. No process is spawned.
func TestHarnessSingleGroupConfig(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Nodes: 3, Count: 40, RateHz: 300, Payload: 48, StartMS: 100, DeadlineMS: 9000,
		Seed: 5, Live: true, Trace: true, Dir: dir,
		Specs: map[int]Spec{
			1: {DataDir: "/data/m2", KillAfterMS: 500, RestartAfterMS: 900},
			2: {Join: true},
		},
	}
	addrs := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}
	initial := []int{0, 1}
	peersOf := [][]wire.PeerAddr{
		{{Node: 2, Addr: addrs[1]}},
		{{Node: 1, Addr: addrs[0]}},
		{{Node: 1, Addr: addrs[0]}, {Node: 2, Addr: addrs[1]}},
	}
	for i := 0; i < opts.Nodes; i++ {
		var m Member
		cfg, err := memberConfig(opts, i, initial, addrs, &m)
		if err != nil {
			t.Fatal(err)
		}
		trace := filepath.Join(dir, fmt.Sprintf("trace%d", i+1))
		if m.TracePath != trace || !reflect.DeepEqual(m.TracePaths, map[uint32]string{1: trace}) {
			t.Fatalf("member %d: TracePath %q, TracePaths %v, want %q", i+1, m.TracePath, m.TracePaths, trace)
		}

		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "node.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := wire.LoadConfig(path)
		if err != nil {
			t.Fatalf("member %d: the daemon's loader rejects the harness's file: %v", i+1, err)
		}
		if err := got.Normalize(); err != nil {
			t.Fatal(err)
		}
		group := wire.GroupConfig{ID: 1, Count: 40, RateHz: 300, Payload: 48, StartMS: 100, TracePath: trace}
		want := wire.Config{
			Node: uint32(i + 1), ListenFD: 3, Peers: peersOf[i],
			Live: true, HeartbeatMS: 150, SuspectMS: 900, LameMS: 3000, IdleMS: 1500,
			Seed:  5 + uint64(i)*7919,
			Count: 40, RateHz: 300, Payload: 48, StartMS: 100, DeadlineMS: 9000,
		}
		switch i {
		case 1:
			want.DataDir = "/data/m2"
			group.DataDir = "/data/m2/g1"
		case 2:
			group.Join = true
		}
		want.Groups = []wire.GroupConfig{group}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d config:\n got %+v\nwant %+v", i+1, got, want)
		}

		// The restarted incarnation rejoins and sources nothing, however
		// often its config is normalized.
		rc := restartConfig(cfg)
		for call := 1; call <= 2; call++ {
			if err := rc.Normalize(); err != nil {
				t.Fatal(err)
			}
			if g := rc.Groups[0]; !g.Join || g.Count >= 0 || g.DataDir != group.DataDir {
				t.Fatalf("member %d restart config after Normalize %d: %+v", i+1, call, g)
			}
		}
		if cfg.Groups[0].Join != (i == 2) {
			t.Fatalf("member %d: restartConfig changed the first incarnation's groups: %+v", i+1, cfg.Groups)
		}
	}
}
