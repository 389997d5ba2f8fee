package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/telemetry"
)

// The scraper half of the chaos rig: with Options.Admin the harness owns
// every member's admin listener, so tests can hit /metrics, /events,
// /status, and /readyz mid-run and assert live protocol invariants —
// not just exit reports. These decode what such a poll returns.

// errUnreachable marks a single-attempt poll that never connected —
// expected while a member is dead and its inherited listener backlogs.
var errUnreachable = fmt.Errorf("harness: member admin endpoint unreachable")

// decodeMetrics consumes a /metrics response: lint-checks the
// exposition and returns the parsed samples keyed by `name{labels}`
// (and bare `name`).
func decodeMetrics(resp *http.Response) (map[string]float64, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: /metrics: HTTP %d", resp.StatusCode)
	}
	if err := telemetry.LintExposition(bytes.NewReader(b)); err != nil {
		return nil, fmt.Errorf("harness: /metrics malformed: %w", err)
	}
	return telemetry.ParseExposition(bytes.NewReader(b))
}

// decodeEvents consumes a /events response into the ring's events,
// oldest first.
func decodeEvents(resp *http.Response) ([]telemetry.Event, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: /events: HTTP %d", resp.StatusCode)
	}
	var evs []telemetry.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("harness: /events line %q: %w", line, err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}
