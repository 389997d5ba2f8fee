package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/store"
	"repro/internal/wire/harness"
)

// verdict is the correctness gate's result for one run: how many ordered
// deliveries the workload owed, how many are missing, and every check
// that failed. Any problem fails the whole run.
type verdict struct {
	attempted uint64
	failed    uint64
	problems  []string
}

func (v *verdict) problemf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.problems = append(v.problems, o.problems...)
}

// failedShare is 1 − delivered ÷ expected, and 1.0 for the whole run if
// any check failed: a run whose members disagree has no partial credit.
func (v *verdict) failedShare() float64 {
	if len(v.problems) > 0 || v.attempted == 0 {
		return 1
	}
	return float64(v.failed) / float64(v.attempted)
}

// checkReports judges a wire run from its members' exit reports: every
// member the workload does not kill reported and converged with no order
// or store error, all of them hold the same order hash per group, each
// delivered what the group owed it, and no datagram failed to decode.
// owed is the delivery count every surviving member owes per group; 0
// means the report's own expectation is unknowable (live membership
// after a crash) and the caller counts deliveries from the traces.
func checkReports(members []harness.Member, groups int, owed uint64) verdict {
	var v verdict
	hashes := make(map[uint32]string)
	for i := range members {
		m := &members[i]
		if m.Killed {
			continue
		}
		v.attempted += owed * uint64(groups)
		if m.Report.Node == 0 {
			v.problemf("member %d: no report (%v)", i+1, m.Err)
			v.failed += owed * uint64(groups)
			continue
		}
		if m.Err != nil {
			v.problemf("member %d: %v", i+1, m.Err)
		}
		if !m.Report.Converged {
			v.problemf("member %d: did not converge", i+1)
		}
		if n := m.Report.Transport.DecodeErrors; n != 0 {
			v.problemf("member %d: %d datagrams failed to decode", i+1, n)
		}
		if len(m.Report.Groups) != groups {
			v.problemf("member %d: reports %d groups, want %d", i+1, len(m.Report.Groups), groups)
		}
		for gi := range m.Report.Groups {
			g := &m.Report.Groups[gi]
			if g.OrderErr != "" {
				v.problemf("member %d group %d: order_err %q", i+1, g.Group, g.OrderErr)
			}
			if g.StoreErr != "" {
				v.problemf("member %d group %d: store_err %q", i+1, g.Group, g.StoreErr)
			}
			if h, seen := hashes[g.Group]; !seen {
				hashes[g.Group] = g.OrderHash
			} else if h != g.OrderHash {
				v.problemf("member %d group %d: order_hash %s differs from %s", i+1, g.Group, g.OrderHash, h)
			}
			if owed > 0 && g.Delivered != owed {
				v.problemf("member %d group %d: delivered %d, owed %d", i+1, g.Group, g.Delivered, owed)
				if g.Delivered < owed {
					v.failed += owed - g.Delivered
				}
			}
		}
	}
	return v
}

// checkFailoverFiles is the failover workload's extra gate, from the
// files the survivors left: their delivery traces are identical, hold
// every message a survivor sourced, and each survivor's durable log
// recovers to exactly the last global sequence it reported delivering.
// It also counts the run: a survivor owes every survivor-sourced message
// plus whatever prefix of the dead member's stream the ring ordered.
func checkFailoverFiles(seg *segment) verdict {
	var v verdict
	alive := seg.survivors()
	if len(alive) == 0 {
		v.problemf("no survivors")
		return v
	}
	var ref []byte
	for _, i := range alive {
		m := &seg.members[i]
		b, err := os.ReadFile(m.TracePath)
		if err != nil {
			v.problemf("member %d: %v", i+1, err)
			continue
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			v.problemf("member %d: delivery trace differs from member %d's", i+1, alive[0]+1)
		}

		g := m.Report.Single()
		l, err := store.OpenFileLog(filepath.Join(seg.dir, fmt.Sprintf("data%d", i+1), "g1"), store.FileLogOptions{})
		if err != nil {
			v.problemf("member %d: reopen durable log: %v", i+1, err)
			continue
		}
		front := uint64(l.RecoveredFront())
		l.Close()
		if front != g.LastGlobal {
			v.problemf("member %d: durable front %d, last_global %d", i+1, front, g.LastGlobal)
		}
	}

	perSource, err := countTraceSources(ref)
	if err != nil {
		v.problemf("delivery trace: %v", err)
		return v
	}
	var lines uint64
	for _, n := range perSource {
		lines += n
	}
	for _, i := range alive {
		if got := perSource[uint32(i+1)]; got != uint64(seg.count) {
			v.problemf("survivor %d sourced %d messages, trace holds %d", i+1, seg.count, got)
			if got < uint64(seg.count) {
				v.failed += (uint64(seg.count) - got) * uint64(len(alive))
				lines += uint64(seg.count) - got
			}
		}
	}
	v.attempted = lines * uint64(len(alive))
	return v
}

// countTraceSources counts a delivery trace's lines ("global source
// local") per source member.
func countTraceSources(trace []byte) (map[uint32]uint64, error) {
	out := make(map[uint32]uint64)
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		src, err := strconv.ParseUint(string(f[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		out[uint32(src)]++
	}
	return out, nil
}

// checkSegment runs every gate that applies to the segment's workload.
func checkSegment(seg *segment) verdict {
	var v verdict
	if seg.w.failover {
		v = checkReports(seg.members, 1, 0)
		v.merge(checkFailoverFiles(seg))
	} else {
		v = checkReports(seg.members, seg.w.groups, uint64(seg.count*seg.w.nodes))
	}
	if seg.runErr != nil && len(v.problems) == 0 {
		v.problemf("%v", seg.runErr) // nothing above caught what the harness saw
	}
	return v
}
