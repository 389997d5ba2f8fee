package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseStageTable reads a captured ringnet-trace report (a traced
// lossy segment, -top 0) and pins the numbers the benchmark takes from it.
func TestParseStageTable(t *testing.T) {
	out, err := os.ReadFile(filepath.Join("testdata", "ringnet-trace.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseStageTable(out)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics{
		"trace.paths":                 4000,
		"trace.clock_err_ms":          0.161,
		"trace.publish_outbox_p50_ms": 0.005,
		"trace.tx_rx_p99_ms":          23.945,
		"trace.wq_stamp_p50_ms":       4.393,
		"trace.stamp_mq_p99_ms":       18.587,
		"trace.mq_deliver_p99_ms":     0.031,
		"trace.e2e_p50_ms":            9.443,
		"trace.e2e_p99_ms":            48.480,
		"trace.e2e_mean_ms":           12.090,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	// 2 header numbers + 9 rows x (p50, p99) + the e2e mean; the
	// self-delivery row tx→stamp is not a canonical transition.
	if len(m) != 2+9*2+1 {
		t.Errorf("parsed %d metrics: %v", len(m), m)
	}
}

// A report that lost a canonical row is an error, not a zero.
func TestParseStageTableMissingRow(t *testing.T) {
	out, err := os.ReadFile(filepath.Join("testdata", "ringnet-trace.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("rx→wq_accept")) {
			kept = append(kept, line)
		}
	}
	_, err = parseStageTable(bytes.Join(kept, []byte("\n")))
	if err == nil || !strings.Contains(err.Error(), "rx→wq_accept") {
		t.Fatalf("err = %v, want the missing row named", err)
	}
}
