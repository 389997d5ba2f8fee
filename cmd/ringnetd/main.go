// ringnetd runs one RingNet protocol node over real loopback/LAN UDP:
// the multi-process counterpart of ringnet-sim's single-process
// simulation. Each member process reads a small JSON ring config (its
// node id, listen address, and the other members), assembles the
// protocol core onto the UDP wire transport with real timers, sources
// its share of the workload, and — once every expected message has been
// delivered in total order — prints a one-line JSON status report
// carrying the delivery-order hash and the control/data byte split.
//
// A 4-node loopback ring:
//
//	for i in 1 2 3 4; do cat > /tmp/rn$i.json <<EOF
//	{"groups":[{"id":1}],"node":$i,"listen":"127.0.0.1:900$i","count":200,"rate_hz":400,
//	 "loss":0.02,"jitter_us":2000,"seed":7,"deadline_ms":30000,"peers":[
//	  $(for j in 1 2 3 4; do [ $j != $i ] && echo -n "{\"node\":$j,\"addr\":\"127.0.0.1:900$j\"},"; done | sed 's/,$//')]}
//	EOF
//	done
//	for i in 1 2 3 4; do ringnetd -config /tmp/rn$i.json & done; wait
//
// All four reports must print the same order_hash.
//
// Add "live":true to every config to enable the membership plane: the
// configured ring is only the bootstrap epoch — members heartbeat each
// other, a crashed member is evicted and the ring repaired at a new
// epoch (the token regenerated if it died with the member), SIGTERM
// performs a graceful leave (announce, drain, hand off a held token),
// and a fresh process with "join":true on its group entries (whose
// peers are seed members) splices into the running ring mid-stream.
//
// One daemon can host many independent ordering groups over the same
// socket: list them all in the "groups" array; stream fields an entry
// leaves out inherit the top-level ones —
//
//	{"node":1,"listen":"127.0.0.1:9001","peers":[...],
//	 "groups":[{"id":1,"count":200},{"id":2,"count":50,"rate_hz":100}]}
//
// Each group runs its own engine, driver goroutine, membership plane,
// and token; inbound datagrams demultiplex by the group id carried in
// every frame section, and outbound traffic from all groups coalesces
// through a shared per-peer batching outbox. The report then carries
// one entry per group plus the daemon aggregate. A key the config
// schema does not define is a load error.
//
// With -data-dir (or "data_dir" in the config) the delivery plane is
// durable: every group appends its deliveries to a segmented ordered
// log under DIR/g<ID>, batching fsyncs on a 25 ms cadence, and a
// process restarted with the same directory recovers its durable front
// and resumes there — the coordinator splices it back in and peers
// backfill the handshake gap — instead of rejoining fresh at the
// quorum baseline. A member whose log fell too far behind the ring
// (past the peers' retained repair window) is rejoined fresh and the
// unrecoverable range is reported. Really-lost messages (repair given
// up ring-wide) are tombstoned in DIR/g<ID>/dlq.rlog; inspect them
// with ringnet-dlq.
//
// With -admin ADDR the daemon serves a live observability endpoint:
// /metrics (Prometheus text exposition of the protocol, transport, and
// store registries), /status (the exit report's JSON schema, live),
// /events (the bounded protocol event ring as NDJSON), /healthz and
// /readyz probes, and net/http/pprof. -report-interval additionally
// emits the live report line to stderr at a fixed period.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/wire"
)

func main() {
	var (
		config  = flag.String("config", "", "path to the JSON ring config (required)")
		dataDir = flag.String("data-dir", "", "durability root: each group persists its ordered delivery log and dead-letter queue under DIR/g<ID> and resumes from it on restart (overrides the config's data_dir)")
		admin   = flag.String("admin", "", "serve the observability endpoint on this TCP address: /metrics (Prometheus text), /status (live JSON report), /events (protocol event ring, NDJSON), /healthz, /readyz, and pprof (overrides the config's admin)")
		repIv   = flag.Duration("report-interval", 0, "emit the live JSON report line to stderr at this period while running, e.g. 2s (overrides the config's report_interval_ms)")
		quiet   = flag.Bool("q", false, "suppress the human-readable summary on stderr")
	)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := wire.LoadConfig(*config)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
	}
	if *admin != "" {
		cfg.Admin = *admin
	}
	if *repIv > 0 {
		cfg.ReportIntervalMS = repIv.Milliseconds()
	}
	rep, err := wire.Run(cfg, os.Stdout)
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"ringnetd node %d: groups=%d converged=%v delivered=%d aggregate=%.0f/s wall=%dms\n",
			rep.Node, len(rep.Groups), rep.Converged, rep.Delivered, rep.ThroughputPS, rep.WallMS)
		for _, g := range rep.Groups {
			fmt.Fprintf(os.Stderr,
				"ringnetd node %d group %d: converged=%v delivered=%d/%d order=%s latency mean=%.2fms p99=%.2fms\n",
				rep.Node, g.Group, g.Converged, g.Delivered, g.Expected, g.OrderHash,
				g.LatencyMeanMS, g.LatencyP99MS)
			fmt.Fprintf(os.Stderr, "ringnetd node %d group %d: %v\n", rep.Node, g.Group, g.Control)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}
