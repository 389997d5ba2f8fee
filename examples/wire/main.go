// Example wire: the RingNet protocol off the simulator — a three-member
// federation exchanging real UDP datagrams on loopback, with 2% injected
// datagram loss and 1.5ms injected jitter at every socket.
//
// Each member daemon hosts TWO independent ordering groups over one
// shared socket (config schema v2): every group runs the full protocol
// core (token ordering, WQ forwarding, delayed cumulative acks, Nack
// repair) on the daemon's one driver goroutine, while inbound datagrams
// demux by the group id in each frame section and outbound traffic from
// both groups coalesces through the shared per-peer outbox. Here the three
// members share one process for a self-contained demo; the standalone
// ringnetd daemon assembles the same pieces. Every member must report
// the identical delivery-order hash per group.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/wire"
)

func main() {
	const (
		n      = 3
		countA = 80 // group 1: the busy stream
		countB = 30 // group 2: a slower sibling sharing the socket
	)
	nodes := make([]*wire.Node, n)
	for i := 0; i < n; i++ {
		cfg := wire.Config{
			Node:       uint32(i + 1),
			Listen:     "127.0.0.1:0",
			Seed:       uint64(42 + i),
			Loss:       0.02,
			JitterUS:   1500,
			RateHz:     400,
			Payload:    64,
			DeadlineMS: 30000,
			Groups: []wire.GroupConfig{
				{ID: 1, Count: countA},
				{ID: 2, Count: countB, RateHz: 150},
			},
		}
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Peers = append(cfg.Peers, wire.PeerAddr{Node: uint32(j + 1)})
			}
		}
		nd, err := wire.NewNode(cfg)
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = nd
	}
	// Sockets are bound; exchange the OS-assigned addresses.
	for i, nd := range nodes {
		fmt.Printf("member %d listening on %s\n", i+1, nd.LocalAddr())
		for j, other := range nodes {
			if j != i {
				if err := nd.SetPeerAddr(uint32(j+1), other.LocalAddr()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	reports := make([]wire.Report, n)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *wire.Node) {
			defer wg.Done()
			rep, err := nd.Run()
			if err != nil {
				log.Fatalf("member %d: %v", i+1, err)
			}
			reports[i] = rep
		}(i, nd)
	}
	wg.Wait()

	fmt.Printf("\n%d members × 2 groups (%d+%d messages) over one lossy loopback socket each:\n",
		n, countA, countB)
	for _, r := range reports {
		var drops uint64
		for _, p := range r.Transport.Peers {
			drops += p.InjectedDrops
		}
		fmt.Printf("  member %d: delivered %d total, aggregate %.0f/s, wall=%dms, injected drops=%d\n",
			r.Node, r.Delivered, r.ThroughputPS, r.WallMS, drops)
		for _, g := range r.Groups {
			fmt.Printf("    group %d: delivered %d/%d order=%s latency mean=%.1fms p99=%.1fms\n",
				g.Group, g.Delivered, g.Expected, g.OrderHash, g.LatencyMeanMS, g.LatencyP99MS)
		}
	}
	for _, gid := range []uint32{1, 2} {
		ref := reports[0].ByGroup(gid)
		for _, r := range reports[1:] {
			g := r.ByGroup(gid)
			if g == nil || ref == nil || g.OrderHash != ref.OrderHash {
				log.Fatalf("group %d delivery order diverged", gid)
			}
		}
	}
	fmt.Println("total order identical at every member, in both groups ✓")
}
