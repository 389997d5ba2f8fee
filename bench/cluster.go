package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/harness"
)

// segment is one cluster run's raw outcome. Everything in it was read
// from outside the member processes: their exit reports, the rusage the
// kernel kept for them, and the files they left in dir.
type segment struct {
	w       *workload
	dir     string
	count   int           // messages sourced per (member, group)
	streamS float64       // nominal stream duration, count/rate
	wall    time.Duration // first spawn to last member reaped
	members []harness.Member
	cpu     []time.Duration // user+sys of each member process
	rssKB   []int64         // peak resident set of each member process
	runErr  error           // harness.Run's first member error, if any

	scrapes []scrape // traced pass only
}

// survivors returns the indexes of the members the workload does not
// kill: the ones whose reports, CPU and traces count.
func (s *segment) survivors() []int {
	var idx []int
	for i := range s.members {
		if !s.members[i].Killed {
			idx = append(idx, i)
		}
	}
	return idx
}

// runSegment launches one loopback cluster for w, streaming for about
// seconds, and waits for every member to exit. traced turns on the
// lifecycle tracer and the /metrics scraper (the traced pass).
func runSegment(w *workload, seconds float64, seed uint64, dir, ringnetd string, traced bool) (*segment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	count := int(math.Round(w.rateHz * seconds))
	if count < 1 {
		return nil, fmt.Errorf("bench: %s: %v s at %v msg/s sources nothing", w.name, seconds, w.rateHz)
	}
	seg := &segment{w: w, dir: dir, count: count, streamS: float64(count) / w.rateHz}

	var cmds []*exec.Cmd // in member order: harness.Run builds them in its spawn loop
	opts := harness.Options{
		Nodes:      w.nodes,
		Count:      count,
		RateHz:     w.rateHz,
		Payload:    payloadBytes,
		Loss:       w.loss,
		JitterUS:   w.jitterUS,
		Seed:       seed,
		DeadlineMS: int64(seg.streamS*1000) + deadlineSlackMS,
		Dir:        dir,
		Command: func(cfgPath string) *exec.Cmd {
			cmd := exec.Command(ringnetd, "-q", "-config", cfgPath)
			cmds = append(cmds, cmd)
			return cmd
		},
	}
	if w.groups > 1 {
		for g := 1; g <= w.groups; g++ {
			opts.Groups = append(opts.Groups, wire.GroupConfig{
				ID:      uint32(g),
				StartMS: 250 + int64(g-1)*staggerMS,
			})
		}
	}
	if w.failover {
		opts.Live = true
		opts.Trace = true
		opts.Specs = make(map[int]harness.Spec)
		for i := 0; i < w.nodes; i++ {
			opts.Specs[i] = harness.Spec{DataDir: filepath.Join(dir, fmt.Sprintf("data%d", i+1))}
		}
		doomed := opts.Specs[w.nodes-1]
		doomed.KillAfterMS = int64(w.killFrac * seg.streamS * 1000)
		opts.Specs[w.nodes-1] = doomed
	}
	var stopScrape func() []scrape
	if traced {
		opts.SpanSample = spanSample(w.nodes * w.groups * count)
		opts.Admin = true
		opts.OnAdminReady = func(addrs []string) { stopScrape = startScraper(addrs) }
	}

	stopRSS := watchChildRSS()
	start := time.Now()
	seg.members, seg.runErr = harness.Run(opts)
	seg.wall = time.Since(start)
	peakKB := stopRSS()
	if stopScrape != nil {
		seg.scrapes = stopScrape()
	}
	if seg.members == nil {
		return nil, seg.runErr // the cluster never launched
	}

	seg.cpu = make([]time.Duration, w.nodes)
	seg.rssKB = make([]int64, w.nodes)
	for i, cmd := range cmds {
		if cmd.ProcessState == nil {
			continue // never started; the correctness gate reports the member
		}
		seg.cpu[i] = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		seg.rssKB[i] = peakKB[cmd.Process.Pid]
	}
	return seg, nil
}

// watchChildRSS samples the peak resident set (VmHWM) of every child of
// this process four times a second until the returned function is
// called, which returns the highest reading per pid. The rusage a reaped
// child leaves behind cannot be used: across exec the kernel carries the
// spawning process's own high-water mark into the child's ru_maxrss, so
// every member would read at least whatever this process once reached.
// A daemon idles for its last 800 ms (quiesce, linger), so the last
// sample before it exits has seen its peak.
func watchChildRSS() (stop func() map[int]int64) {
	done := make(chan struct{})
	peak := make(map[int]int64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		self := os.Getpid()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			procs, _ := os.ReadDir("/proc") // unreadable: no samples, and the members read 0
			for _, p := range procs {
				pid, err := strconv.Atoi(p.Name())
				if err != nil {
					continue
				}
				if kb := childHWM(pid, self); kb > peak[pid] {
					peak[pid] = kb
				}
			}
		}
	}()
	return func() map[int]int64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// childHWM returns pid's VmHWM in kB if pid is a child of parent, else 0
// (as for a process that exited between the directory listing and here).
func childHWM(pid, parent int) int64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	var ppid int
	var hwm int64
	for _, line := range strings.Split(string(status), "\n") {
		switch {
		case strings.HasPrefix(line, "PPid:"):
			fmt.Sscanf(line, "PPid: %d", &ppid)
		case strings.HasPrefix(line, "VmHWM:"):
			fmt.Sscanf(line, "VmHWM: %d kB", &hwm)
		}
	}
	if ppid != parent {
		return 0
	}
	return hwm
}

// spanSample picks the tracer's sampling modulus so that a member's span
// ring cannot wrap: a traced message leaves at most ~16 spans on a
// member, the ring holds 16,384.
func spanSample(msgs int) int { return (msgs + 1023) / 1024 }
