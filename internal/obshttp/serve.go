package obshttp

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"gamedb/internal/obs"
)

// NewServeMux builds the observability HTTP mux:
//
//	/metrics       Prometheus text exposition of reg
//	/trace         Chrome trace_event JSON of tracer's retained spans
//	/profile       the per-behavior / per-rule profile table as text
//	/debug/pprof/  the standard net/http/pprof handlers
//
// tracer and prof may be nil; their endpoints then serve 404. The
// endpoint is for operators, not players: it exposes pprof (heap
// contents, CPU profiles) and must only ever bind a trusted interface
// (localhost, or a private network behind auth) — see the README's
// Observability section.
func NewServeMux(reg *obs.Registry, tracer *obs.Tracer, prof *obs.Profiler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	if tracer != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tracer.WriteChromeTrace(w)
		})
	}
	if prof != nil {
		mux.HandleFunc("/profile", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			prof.Table().Fprint(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves mux in a background goroutine, returning
// the bound listener (so ":0" callers learn the port) and the server
// for shutdown. The sims call this behind their -listen flag.
func Serve(addr string, mux *http.ServeMux) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln, nil
}
