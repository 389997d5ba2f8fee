package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// PeerAddr names one remote daemon. Addr may be empty at load time and
// filled later with Node.SetPeerAddr (in-process clusters bind their
// sockets first and exchange addresses afterwards).
type PeerAddr struct {
	Node uint32 `json:"node"`
	Addr string `json:"addr"`
}

// GroupConfig describes one ring group hosted by the daemon. Every
// daemon in the deployment lists the same groups; each group spans all
// configured daemons and runs its own engine, membership plane, and
// token over the daemon's shared socket and event loop.
type GroupConfig struct {
	// ID is the group id carried in every frame section. Must be
	// non-zero (0 is the transport's own control channel) and unique
	// within the daemon.
	ID uint32 `json:"id"`

	// Join starts this daemon outside the group's ring: the daemon's
	// Peers are the seeds to solicit. Requires Live.
	Join bool `json:"join,omitempty"`

	// Stream: this group sources Count messages of Payload bytes at
	// RateHz, starting once every configured peer has answered a live
	// clock probe, and StartMS after launch at the latest: StartMS is a
	// ceiling. Groups that start on readiness keep their StartMS
	// differences as offsets from one another. A joiner starts StartMS
	// after it joins. Zero values inherit the
	// daemon-level defaults (Config.Count etc.); Count < 0 means
	// "source nothing" explicitly, and stays negative through Normalize
	// so a second Normalize cannot mistake it for "inherit". Members may
	// source different counts: each announces where its stream ends.
	Count   int     `json:"count,omitempty"`
	RateHz  float64 `json:"rate_hz,omitempty"`
	Payload int     `json:"payload,omitempty"`
	StartMS int64   `json:"start_ms,omitempty"`

	// TracePath, when set, dumps this group's delivery trace ("global
	// source local" per line) for offline suffix/equality checks.
	TracePath string `json:"trace_path,omitempty"`

	// DataDir, when set, makes this member's delivery plane durable: every
	// delivery is appended to a segmented ordered log under this directory,
	// really-lost bodies are tombstoned in a dead-letter queue there, and a
	// restart with the same directory recovers the durable front and asks
	// the coordinator to resume at it instead of joining at the quorum
	// baseline. Empty inherits "<daemon data_dir>/g<ID>" when the daemon
	// sets one, else persistence is off for this group.
	DataDir string `json:"data_dir,omitempty"`
}

// Config is a ringnetd daemon's deployment description, read from a
// small JSON file: one daemon, one socket, N groups. Every daemon of the
// deployment runs the same member list (self included via Node); within
// each group the sorted member IDs form the top ring and the lowest ID
// is the ring leader, which injects that group's ordering token.
//
// With Live set, the static list is only the bootstrap epoch of each
// group: members heartbeat each other per group, a crashed member is
// evicted and the ring repaired at a new epoch, SIGTERM becomes a
// graceful leave of every group, and fresh processes can join running
// rings (per-group Join mode, where Peers are the seed members to
// solicit).
type Config struct {
	Node     uint32     `json:"node"`
	Listen   string     `json:"listen"`
	ListenFD int        `json:"listen_fd,omitempty"`
	Peers    []PeerAddr `json:"peers"`

	// Admin, when set, is the TCP listen address of the daemon's
	// observability endpoint (/metrics, /status, /events, /healthz,
	// /readyz, pprof). AdminFD instead serves on an inherited listener
	// (harness spawns: the parent binds, so there are no port races).
	// ReportIntervalMS > 0 additionally emits the v2 report line to
	// stderr at that period while the daemon runs.
	Admin            string `json:"admin,omitempty"`
	AdminFD          int    `json:"admin_fd,omitempty"`
	ReportIntervalMS int64  `json:"report_interval_ms,omitempty"`

	// Groups lists the ring groups this daemon hosts; at least one.
	Groups []GroupConfig `json:"groups"`

	// Live enables the membership plane (heartbeats, failure detection,
	// ring repair, join/leave) for every group.
	Live bool `json:"live,omitempty"`

	// Membership timers (defaults: 150/900 ms), shared by all groups;
	// the suspect timeout must exceed the heartbeat.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	SuspectMS   int64 `json:"suspect_ms,omitempty"`

	// Fault injection on inbound datagrams (socket layer). DropRules is
	// the programmable per-peer, time-windowed drop matrix the partition
	// harness uses to cut a cluster without touching sockets.
	Seed      uint64     `json:"seed"`
	Loss      float64    `json:"loss"`
	JitterUS  int64      `json:"jitter_us"`
	DropRules []DropRule `json:"drop_rules,omitempty"`

	// Daemon-level stream defaults, inherited by groups that leave the
	// matching field zero. StartMS (default 250) is when a group's stream
	// starts at the latest, counted from launch; it starts sooner once
	// every peer answers a live clock probe (GroupConfig.StartMS).
	Count   int     `json:"count"`
	RateHz  float64 `json:"rate_hz"`
	Payload int     `json:"payload"`
	StartMS int64   `json:"start_ms"`

	// DeadlineMS bounds the whole run in wall-clock time.
	DeadlineMS int64 `json:"deadline_ms"`

	// DataDir is the daemon-level durability root: groups that leave
	// their own data_dir empty inherit "<DataDir>/g<ID>". Empty disables
	// persistence for groups that do not set their own.
	DataDir string `json:"data_dir,omitempty"`

	// TraceSampleMod enables the per-message lifecycle trace plane: a
	// message whose FNV-1a key hash (group, source, local seq) is
	// 0 mod N is traced through every stage — publish, outbox, tx/rx,
	// WQ accept, token stamp, MQ, delivery — on every member, since the
	// sampler is deterministic over fields each member already holds.
	// 1 traces everything; 0 (the default) disables tracing entirely.
	TraceSampleMod int `json:"trace_sample_mod,omitempty"`

	// SpanPath, when set, dumps the retained trace spans (the /trace
	// NDJSON document: header line plus spans) to this file at exit.
	SpanPath string `json:"span_path,omitempty"`
}

// defaults fills zero-valued daemon-level tunables.
func (c *Config) defaults() {
	if c.RateHz <= 0 {
		c.RateHz = 200
	}
	if c.Payload <= 0 {
		c.Payload = 64
	}
	if c.StartMS <= 0 {
		c.StartMS = 250
	}
	if c.DeadlineMS <= 0 {
		c.DeadlineMS = 30000
	}
	if c.HeartbeatMS <= 0 {
		c.HeartbeatMS = 150
	}
	if c.SuspectMS <= 0 {
		c.SuspectMS = 900
	}
}

// Normalize validates the config shape and brings it to canonical form:
// daemon defaults filled and per-group stream fields resolved against
// the daemon-level defaults. Idempotent; NewNode calls it, but tools
// that inspect configs may call it directly. Errors name the offending
// field and what to do about it.
func (c *Config) Normalize() error {
	c.defaults()
	if c.Node == 0 {
		return fmt.Errorf("wire: node id must be non-zero")
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("wire: config hosts no groups: list them in a \"groups\" array, e.g. \"groups\": [{\"id\": 1}] — stream fields a group leaves out inherit the daemon-level count, rate_hz, payload and start_ms")
	}

	if c.SuspectMS <= c.HeartbeatMS {
		return fmt.Errorf("wire: suspect_ms (%d) must exceed heartbeat_ms (%d): the failure detector would suspect a live peer between two of its heartbeats", c.SuspectMS, c.HeartbeatMS)
	}

	seen := make(map[uint32]int, len(c.Groups))
	peerSeen := map[uint32]bool{c.Node: true}
	for _, p := range c.Peers {
		if p.Node == 0 || peerSeen[p.Node] {
			return fmt.Errorf("wire: bad or duplicate peer id %d", p.Node)
		}
		peerSeen[p.Node] = true
	}
	for i := range c.Groups {
		g := &c.Groups[i]
		if g.ID == GroupControl {
			return fmt.Errorf("wire: groups[%d]: id must be non-zero (group 0 is the transport's control channel)", i)
		}
		if j, dup := seen[g.ID]; dup {
			return fmt.Errorf("wire: groups[%d]: duplicate group id %d (already used by groups[%d]) — each hosted group needs its own id", i, g.ID, j)
		}
		seen[g.ID] = i
		if g.Join && !c.Live {
			return fmt.Errorf("wire: group %d: join requires live membership (set \"live\": true)", g.ID)
		}
		// Stream fields: inherit the daemon defaults.
		if g.Count == 0 {
			g.Count = c.Count
		}
		if g.RateHz <= 0 {
			g.RateHz = c.RateHz
		}
		if g.Payload <= 0 {
			g.Payload = c.Payload
		}
		if g.StartMS <= 0 {
			g.StartMS = c.StartMS
		}
		if g.DataDir == "" && c.DataDir != "" {
			g.DataDir = filepath.Join(c.DataDir, fmt.Sprintf("g%d", g.ID))
		}
	}
	return nil
}

// LoadConfig reads a JSON config file (Normalize runs at NewNode). A key
// the schema does not define is an error, not ignored: a misspelt or
// retired setting must not silently run with its default.
func LoadConfig(path string) (Config, error) {
	var c Config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("wire: config %s: %w", path, err)
	}
	if dec.More() {
		return c, fmt.Errorf("wire: config %s: trailing data after the config object", path)
	}
	return c, nil
}
