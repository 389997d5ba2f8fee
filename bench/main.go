// Command bench is the repo's benchmark: one command that builds
// ringnetd and ringnet-trace, runs fixed workloads against the real
// multi-process ring (and one deterministic simulator run), checks every
// run's output, and prints each metric BENCHMARK.json names.
//
// Every number is taken from outside the program under test: member exit
// reports, the rusage of the member processes, trace files, the span
// dumps and /metrics the daemon already serves, and timing of calls into
// each layer's exported functions.
//
//	bash bench/run.sh                                  # every workload, end-to-end metrics
//	bash bench/run.sh -trace 1                         # ... plus traced passes and layer timers
//	bash bench/run.sh -workload lossy -seed 7          # one workload; last stdout line is its result
//	bash bench/run.sh -repeat 2                        # self-check: do two sets agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program itself needs: the
// metric names it must print, their units, and the regression bounds the
// self-check compares against.
type benchSpec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// reading is one metric as printed.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render prints m under the names defs lists, in that order's units. A
// defined metric the run did not produce reads 0 (the workload does not
// exercise that layer) when zeroFill is set and is an error otherwise; a
// produced metric BENCHMARK.json does not name is always an error, so
// the two cannot drift apart.
func render(defs []metricDef, m metrics, zeroFill bool) (map[string]reading, error) {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		out[d.Name] = reading{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("bench: measured %s, which BENCHMARK.json does not name", name)
		}
	}
	return out, nil
}

// result is one workload run.
type result struct {
	Workload    string             `json:"workload"`
	Correct     bool               `json:"correct"`
	Attempted   uint64             `json:"attempted"`
	Failed      uint64             `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Problems    []string           `json:"problems,omitempty"`
	WallS       float64            `json:"wall_s"`
	EndToEnd    map[string]reading `json:"end_to_end"`
	PerLayer    map[string]reading `json:"per_layer,omitempty"`
}

// newResult scores a run from its verdict. A run that fails any check
// has no partial credit: every delivery it attempted counts as failed.
func newResult(workload string, v verdict) *result {
	res := &result{
		Workload:    workload,
		Correct:     len(v.problems) == 0,
		Attempted:   v.attempted,
		Failed:      v.failed,
		FailedShare: v.failedShare(),
		Problems:    v.problems,
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res
}

// env is what every run shares.
type env struct {
	spec         *benchSpec
	ringnetd     string
	ringnetTrace string
	runDir       string
	timers       metrics // layer timers, measured once per invocation
}

// eachSegment runs w's clusters back to back, handing each to visit
// before its directory is removed.
func (e *env) eachSegment(w *workload, seconds float64, seed uint64, traced bool, visit func(s int, seg *segment) error) error {
	for s := 0; s < w.segments; s++ {
		dir := filepath.Join(e.runDir, fmt.Sprintf("%s-%d", w.name, s))
		seg, err := runSegment(w, seconds/float64(w.segments), seed*1000+uint64(s), dir, e.ringnetd, traced)
		if err != nil {
			return err
		}
		if err := visit(s, seg); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload runs w once. With traced set it also runs the traced pass
// and reports the per-layer metrics; the end-to-end metrics always come
// from the untraced run.
func (e *env) runWorkload(w *workload, seconds float64, seed uint64, traced bool) (*result, error) {
	start := time.Now()
	var e2e, layers []metrics
	var v verdict
	var err error
	if w.sim {
		e2e, layers, v, err = runSim(seed, seconds)
	} else {
		err = e.eachSegment(w, seconds, seed, false, func(s int, seg *segment) error {
			sv := checkSegment(seg)
			v.merge(sv)
			if len(sv.problems) > 0 {
				return nil
			}
			m, lm := seg.readings()
			fmt.Fprintf(os.Stderr, "bench: %s segment %d: lat %.3f ms, cpu %.2f us, ctrl %.1f B, %.4f datagrams per delivery, longest stall %.0f ms\n", w.name, s,
				m["deliver_lat_mean_ms"], lm["cpu_us_per_delivery"], m["ctrl_bytes_per_delivery"], m["datagrams_per_delivery"], lm["wire.max_gap_ms"])
			e2e = append(e2e, m)
			layers = append(layers, lm)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	res := newResult(w.name, v)
	res.WallS = time.Since(start).Seconds()
	if !res.Correct {
		return res, nil
	}
	m := medianOf(e2e)
	if res.EndToEnd, err = render(e.spec.EndToEnd, m, false); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}

	lm := medianOf(layers)
	if !w.sim {
		var tracedLayers []metrics
		var tracedLat, tracedCPU []float64 // the untraced run's readings again, for the overhead
		err := e.eachSegment(w, seconds, seed, true, func(_ int, seg *segment) error {
			if sv := checkSegment(seg); len(sv.problems) > 0 {
				return fmt.Errorf("bench: %s traced pass: %s", w.name, strings.Join(sv.problems, "; "))
			}
			tm, err := traceMetrics(seg, e.ringnetTrace)
			if err != nil {
				return err
			}
			tracedLayers = append(tracedLayers, tm)
			te, tl := seg.readings()
			tracedLat = append(tracedLat, te["deliver_lat_mean_ms"])
			tracedCPU = append(tracedCPU, tl["cpu_us_per_delivery"])
			return nil
		})
		if err != nil {
			return nil, err
		}
		lm["trace.overhead_lat_pct"] = 100 * (median(tracedLat)/m["deliver_lat_mean_ms"] - 1)
		lm["trace.overhead_cpu_pct"] = 100 * (median(tracedCPU)/lm["cpu_us_per_delivery"] - 1)
		for k, v := range medianOf(tracedLayers) {
			lm[k] = v
		}
	}
	for k, v := range e.timers {
		lm[k] = v
	}
	if res.PerLayer, err = render(e.spec.PerLayer, lm, true); err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// findRoot walks up from the working directory to the repo root: the
// directory holding BENCHMARK.json and the daemon's source.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ringnetd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no repo root (BENCHMARK.json and cmd/ringnetd) above the working directory")
		}
		dir = parent
	}
}

// build compiles the two binaries the workloads run, from this checkout.
func build(root, binDir string) (seconds float64, err error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/ringnetd", "./cmd/ringnet-trace")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("bench: go build: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// environment records what a reader needs to compare two result files.
func environment(root string) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: recorded as empty
	commit := "unknown"                                    // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":  runtime.NumCPU(),
		"go":     runtime.Version(),
		"kernel": strings.TrimSpace(string(kernel)),
		"commit": commit,
	}
}

// document is the full output of one invocation.
type document struct {
	Env     map[string]any `json:"env"`
	Seed    uint64         `json:"seed"`
	Seconds float64        `json:"seconds"`
	BuildS  float64        `json:"bench.build_s"`
	Sets    [][]*result    `json:"sets"`
	Checks  []check        `json:"self_check,omitempty"`
}

// check compares one end-to-end (metric, workload) pair between the
// first set and a later one.
type check struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Later    float64 `json:"later"`
	RelDiff  float64 `json:"rel_diff"` // positive = the later set is worse
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// selfCheck reports, per (metric, workload), whether each later set is
// no worse than the first by more than the metric's bound.
func selfCheck(spec *benchSpec, sets [][]*result) []check {
	var out []check
	for _, later := range sets[1:] {
		for i, r := range later {
			first := sets[0][i]
			if !first.Correct || !r.Correct {
				continue
			}
			for _, d := range spec.EndToEnd {
				a, b := first.EndToEnd[d.Name].Value, r.EndToEnd[d.Name].Value
				rel := (b - a) / a
				if d.Better == "higher" {
					rel = -rel
				}
				out = append(out, check{r.Workload, d.Name, a, b, rel, d.Bound, rel <= d.Bound})
			}
		}
	}
	return out
}

// exitCode is non-zero if any run failed its correctness gate or any
// self-check pair missed its bound; it says which on standard error.
func exitCode(sets [][]*result, checks []check) int {
	code := 0
	for _, set := range sets {
		for _, r := range set {
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s FAILED: %s\n", r.Workload, strings.Join(r.Problems, "; "))
				code = 1
			}
		}
	}
	for _, c := range checks {
		if !c.Within {
			fmt.Fprintf(os.Stderr, "bench: %s %s: %.6g -> %.6g is %.1f%% worse, bound %.0f%%\n",
				c.Workload, c.Metric, c.First, c.Later, 100*c.RelDiff, 100*c.Bound)
			code = 1
		}
	}
	return code
}

func run() (int, error) {
	var (
		only    = flag.String("workload", "", "run only this workload and print its result as the last line (default: all)")
		seed    = flag.Uint64("seed", 1, "drives the fault injector and the simulator's RNG")
		seconds = flag.Float64("seconds", 0, "how long each workload streams (default: run_seconds from BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: also run the traced pass and the layer timers, and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and check the sets agree within the bounds")
		outPath = flag.String("out", "", "also write the full JSON document to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2, nil
	}

	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return 1, err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *only != "" {
		w := findWorkload(*only)
		if w == nil {
			return 2, fmt.Errorf("bench: unknown workload %q", *only)
		}
		selected = []workload{*w}
	}

	buildDir := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	e := &env{
		spec:         spec,
		ringnetd:     filepath.Join(binDir, "ringnetd"),
		ringnetTrace: filepath.Join(binDir, "ringnet-trace"),
		runDir:       filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	doc := document{Env: environment(root), Seed: *seed, Seconds: *seconds}
	if doc.BuildS, err = build(root, binDir); err != nil {
		return 1, err
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(e.runDir)

	traced := *trace == 1
	if traced {
		if e.timers, err = layerTimers(timerBatches, 1, filepath.Join(e.runDir, "timers")); err != nil {
			return 1, err
		}
	}
	for rep := 0; rep < *repeat; rep++ {
		var set []*result
		for i := range selected {
			w := &selected[i]
			fmt.Fprintf(os.Stderr, "bench: %s (set %d of %d)\n", w.name, rep+1, *repeat)
			res, err := e.runWorkload(w, *seconds, *seed, traced)
			if err != nil {
				return 1, err
			}
			set = append(set, res)
		}
		doc.Sets = append(doc.Sets, set)
	}
	doc.Checks = selfCheck(spec, doc.Sets)

	code := exitCode(doc.Sets, doc.Checks)
	full, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return 1, err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(full, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if *only == "" || *repeat > 1 {
		fmt.Println(string(full))
		return code, nil
	}
	return code, printContractLine(doc.Sets[0][0], traced)
}

// printContractLine prints the one-workload result in the shape the
// benchmark driver reads from the last line of standard output: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printContractLine(r *result, traced bool) error {
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	if ms == nil {
		ms = map[string]reading{} // a failed gate leaves nothing worth reporting
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted uint64             `json:"attempted"`
		Failed    uint64             `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
