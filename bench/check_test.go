package main

import (
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/harness"
)

// goodMembers is a 4-member single-group run in which everything agrees.
func goodMembers(owed uint64) []harness.Member {
	ms := make([]harness.Member, 4)
	for i := range ms {
		ms[i].Report = wire.Report{
			Node:      uint32(i + 1),
			Converged: true,
			Delivered: owed,
			Groups: []wire.GroupReport{{
				Group: 1, Converged: true, Delivered: owed, Expected: owed, OrderHash: "abc",
			}},
		}
	}
	return ms
}

// TestCorrectnessGateFires feeds the checker the three failures the gate
// exists for. Each must fail the whole run: failed_share 1.0 and a
// non-zero exit.
func TestCorrectnessGateFires(t *testing.T) {
	const owed = 400
	if v := checkReports(goodMembers(owed), 1, owed); len(v.problems) != 0 || v.failedShare() != 0 || v.attempted != 4*owed {
		t.Fatalf("clean run judged %+v", v)
	}
	cases := []struct {
		name   string
		break_ func(ms []harness.Member)
		want   string
	}{
		{"mismatched order_hash", func(ms []harness.Member) { ms[2].Report.Groups[0].OrderHash = "xyz" }, "order_hash"},
		{"missing report", func(ms []harness.Member) { ms[1].Report = wire.Report{} }, "no report"},
		{"short delivery count", func(ms []harness.Member) { ms[3].Report.Groups[0].Delivered = owed - 7 }, "delivered 393"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ms := goodMembers(owed)
			c.break_(ms)
			v := checkReports(ms, 1, owed)
			if len(v.problems) == 0 || !strings.Contains(strings.Join(v.problems, "\n"), c.want) {
				t.Fatalf("problems %q lack %q", v.problems, c.want)
			}
			if got := v.failedShare(); got != 1 {
				t.Fatalf("failed_share %v, want 1", got)
			}
			res := newResult("steady", v)
			if res.Correct || res.Failed != res.Attempted {
				t.Fatalf("result %+v still counts deliveries as good", res)
			}
			if code := exitCode([][]*result{{res}}, nil); code == 0 {
				t.Fatal("exit code 0 for a failed gate")
			}
		})
	}
}

// A member the workload kills owes nothing and its silence is expected.
func TestKilledMemberIsExempt(t *testing.T) {
	ms := goodMembers(0)
	ms[3] = harness.Member{Killed: true}
	if v := checkReports(ms, 1, 0); len(v.problems) != 0 {
		t.Fatalf("problems %q", v.problems)
	}
}

func TestSelfCheckFlagsARegression(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "lat", Better: "lower", Bound: 0.1},
		{Name: "rate", Better: "higher", Bound: 0.1},
	}}
	set := func(lat, rate float64) []*result {
		return []*result{{Workload: "w", Correct: true, EndToEnd: map[string]reading{"lat": {Value: lat}, "rate": {Value: rate}}}}
	}
	checks := selfCheck(spec, [][]*result{set(10, 100), set(10.5, 80)})
	if len(checks) != 2 || !checks[0].Within || checks[1].Within {
		t.Fatalf("checks %+v: want lat within, rate out", checks)
	}
	if exitCode(nil, checks) == 0 {
		t.Fatal("exit code 0 for a missed bound")
	}
}
