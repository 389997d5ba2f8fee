package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"
)

// adminServer is ringnetd's observability endpoint: one HTTP listener
// per daemon serving the live metrics registry, the protocol event ring,
// the v2 status snapshot, health/readiness probes, and pprof. It is
// strictly read-only — nothing here mutates protocol state; snapshots
// enter the driver goroutine through the same CallWait gate as
// everything else.
//
//	/metrics  Prometheus text exposition (registry + transport-derived)
//	/status   live Report (the exit report's schema, mid-run)
//	/events   protocol event ring, NDJSON, oldest first; ?since=<seq>
//	          returns only events with Seq >= since
//	/trace    per-message lifecycle spans, NDJSON: one TraceHeader line
//	          (node id, peer clock offsets), then the retained spans
//	/healthz  liveness: 200 while the process serves
//	/readyz   readiness: 200 once every group is converged-or-ordering,
//	          none parked lame, stores healthy; 503 otherwise
//	/debug/pprof/...
type adminServer struct {
	nd  *Node
	ln  net.Listener
	srv *http.Server
}

// newAdminServer binds (or adopts, via an inherited fd) the admin
// listener and starts serving immediately, so probes and scrapes work
// through the daemon's whole life, including assembly and teardown.
func newAdminServer(nd *Node, addr string, fd int) (*adminServer, error) {
	var ln net.Listener
	var err error
	if fd > 0 {
		f := os.NewFile(uintptr(fd), "ringnetd-admin")
		ln, err = net.FileListener(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("wire: admin fd %d: %w", fd, err)
		}
	} else {
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("wire: admin listen %s: %w", addr, err)
		}
	}
	a := &adminServer{nd: nd, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/status", a.handleStatus)
	mux.HandleFunc("/events", a.handleEvents)
	mux.HandleFunc("/trace", a.handleTrace)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/readyz", a.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go a.srv.Serve(ln)
	return a, nil
}

// addr returns the bound listen address.
func (a *adminServer) addr() string { return a.ln.Addr().String() }

// close stops the listener and in-flight handlers. Nil-safe: a daemon
// without an admin endpoint calls this unconditionally at teardown.
func (a *adminServer) close() {
	if a == nil {
		return
	}
	a.srv.Close()
}

func (a *adminServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := a.nd.tel.reg.WriteProm(w); err != nil {
		return
	}
	_ = writeDerivedMetrics(w, a.nd.tel, a.nd.tr, a.nd.ob)
}

func (a *adminServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.nd.Snapshot())
}

func (a *adminServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = a.nd.tel.events.WriteNDJSONSince(w, since)
}

func (a *adminServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = writeTraceDump(w, a.nd.tel, a.nd.tr)
}

func (a *adminServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (a *adminServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if a.nd.Ready() {
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
}
