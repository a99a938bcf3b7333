package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the observability HTTP surface:
//
//	/metrics        Prometheus text exposition
//	/healthz        200 while the process is live and the breaker is
//	                closed; 503 (with a reason body) when tripped
//	/readyz         200 while admission is open; 503 when not yet
//	                serving, breaker-tripped, overloaded (bounded queue
//	                at its bound or shedding recently — the response
//	                carries a Retry-After header so clients back off),
//	                or saturated (every slot busy with more requests
//	                queued)
//	/debug/pprof/*  stdlib profiling endpoints
//
// All handlers are safe to scrape during active serving: they read only
// atomics and snapshots, never the scheduler's locks.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if r != nil && r.tripped.Load() != 0 {
			http.Error(w, "breaker tripped", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		reason := ""
		switch {
		case r == nil || r.ready.Load() == 0:
			reason = "not serving yet"
		case r.tripped.Load() != 0:
			reason = "breaker tripped"
		case r.overloaded.Load() != 0:
			reason = "overloaded: admission queue at bound or shedding"
			w.Header().Set("Retry-After", "1")
		default:
			slots, active, queued := r.slots.Load(), r.active.Load(), r.queued.Load()
			if slots > 0 && active >= slots && queued > 0 {
				reason = fmt.Sprintf("saturated: %d/%d slots busy, %d queued", active, slots, queued)
			}
		}
		if reason != "" {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Open builds the registry a CLI's -metrics-addr and -flight-dump flags
// ask for: nil when both are empty (observation hooks then no-op), armed
// to dump to dumpPath when that is set, and serving the observability
// endpoints on addr — bound reports where — when that is.
func Open(addr, dumpPath string) (reg *Registry, bound string, err error) {
	if addr == "" && dumpPath == "" {
		return nil, "", nil
	}
	reg = New()
	reg.SetDumpPath(dumpPath)
	if addr != "" {
		bound, _, err = reg.Serve(addr)
	}
	return reg, bound, err
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// observability endpoints in the background. It returns the bound
// address — useful with port 0 — and a shutdown func. Serving errors
// after a successful bind are swallowed: metrics must never take the
// inference process down.
func (r *Registry) Serve(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
