package wire

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigGroupInheritance: per-group stream fields override the
// daemon-level defaults field by field, which in turn default to
// 200 msg/s, 64 bytes, 250 ms; Count < 0 means "source nothing"
// explicitly, distinct from 0 = inherit — and stays distinct through a
// second Normalize (NewNode and tools may both call it).
func TestConfigGroupInheritance(t *testing.T) {
	c := Config{
		Node:    1,
		Listen:  "127.0.0.1:0",
		Count:   100,
		RateHz:  500,
		Payload: 32,
		StartMS: 400,
		Groups: []GroupConfig{
			{ID: 1},
			{ID: 2, Count: 7, RateHz: 50, Payload: 16, StartMS: 10},
			{ID: 3, Count: -1},
		},
	}
	for call := 1; call <= 2; call++ {
		if err := c.Normalize(); err != nil {
			t.Fatalf("Normalize call %d: %v", call, err)
		}
		if g := c.Groups[0]; g.Count != 100 || g.RateHz != 500 || g.Payload != 32 || g.StartMS != 400 {
			t.Fatalf("call %d: group 1 did not inherit daemon defaults: %+v", call, g)
		}
		if g := c.Groups[1]; g.Count != 7 || g.RateHz != 50 || g.Payload != 16 || g.StartMS != 10 {
			t.Fatalf("call %d: group 2 overrides lost: %+v", call, g)
		}
		if g := c.Groups[2]; g.Count > 0 {
			t.Fatalf("call %d: group 3 Count=-1 should mean source-nothing, got Count=%d", call, g.Count)
		}
	}

	d := Config{Node: 1, Listen: "127.0.0.1:0", Count: 120, Groups: []GroupConfig{{ID: 7}}}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if g := d.Groups[0]; g.ID != 7 || g.Count != 120 || g.RateHz != 200 || g.Payload != 64 || g.StartMS != 250 {
		t.Fatalf("built-in stream defaults not inherited: %+v", g)
	}
}

// TestConfigValidation: every malformed shape is rejected with an error
// that names the problem and the fix.
func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Node: 1, Listen: "127.0.0.1:0", Peers: []PeerAddr{{Node: 2}, {Node: 3}},
			Groups: []GroupConfig{{ID: 1}}}
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string // substring the error must carry
	}{
		{
			name:    "zero node id",
			mutate:  func(c *Config) { c.Node = 0 },
			wantSub: "node id",
		},
		{
			name:    "duplicate peer",
			mutate:  func(c *Config) { c.Peers = append(c.Peers, PeerAddr{Node: 2}) },
			wantSub: "duplicate peer",
		},
		{
			name:    "no groups",
			mutate:  func(c *Config) { c.Groups = nil },
			wantSub: `"groups": [{"id": 1}]`,
		},
		{
			name: "duplicate group ids",
			mutate: func(c *Config) {
				c.Groups = []GroupConfig{{ID: 5}, {ID: 6}, {ID: 5}}
			},
			wantSub: "duplicate group id 5",
		},
		{
			name: "group id zero",
			mutate: func(c *Config) {
				c.Groups = []GroupConfig{{ID: 0}}
			},
			wantSub: "id must be non-zero",
		},
		{
			name: "join without live",
			mutate: func(c *Config) {
				c.Groups = []GroupConfig{{ID: 1, Join: true}}
			},
			wantSub: "join requires live",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mutate(&c)
			err := c.Normalize()
			if err == nil {
				t.Fatalf("accepted: %+v", c)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestLoadConfigRejectsUnknownKeys: a key the schema does not define —
// here every key this schema once had and dropped — fails the load with
// the file and the key named, instead of being ignored and running on a
// default; and a file that hosts no groups is refused with what to write.
func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	const flat = `"node":1,"listen":"127.0.0.1:0","count":50`
	const valid = flat + `,"groups":[{"id":4,"join":false}]`
	load := func(t *testing.T, body string) error {
		path := filepath.Join(t.TempDir(), "node.json")
		if err := os.WriteFile(path, []byte("{"+body+"}"), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadConfig(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Errorf("load error %q does not name the file", err)
			}
			return err
		}
		return c.Normalize()
	}
	if err := load(t, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := load(t, valid+"} {"); err == nil {
		t.Fatal("accepted a second JSON value after the config object")
	}
	rows := []struct {
		key, body string
	}{
		// The retired flat schema: no "groups", one ring described at
		// the top level.
		{"group", flat + `,"group":4`},
		{"join", flat + `,"live":true,"join":true`},
		{"expect", flat + `,"expect":100`},
		{"trace_path", flat + `,"trace_path":"/tmp/t"`},
		{"role", valid + `,"role":"ring"`},
		{"batch_us", valid + `,"batch_us":500`},
		{"flush_ms", valid + `,"flush_ms":-1`},
		{"sync_rounds", valid + `,"sync_rounds":2`},
		{"quiesce_ms", valid + `,"quiesce_ms":100`},
		{"linger_ms", valid + `,"linger_ms":100`},
		{"token_watch_ms", valid + `,"token_watch_ms":900`},
		{"leader", flat + `,"groups":[{"id":4,"leader":1}]`},
		{"groups", flat},
	}
	for _, r := range rows {
		t.Run(r.key, func(t *testing.T) {
			err := load(t, r.body)
			if err == nil {
				t.Fatalf("accepted {%s}", r.body)
			}
			if want := `"` + r.key + `"`; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}
