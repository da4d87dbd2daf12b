// Package obshttp is the network side of observability: the live
// /metrics, /trace, /profile and pprof endpoint, and the rig the CLIs
// build behind their -trace, -profile, -listen and -linger flags. It is
// kept apart from package obs, whose tracer and profiler the
// deterministic kernel links, so the kernel links no network stack.
package obshttp

import (
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"gamedb/internal/obs"
)

// Rig is a command's observability rig behind its -trace, -profile,
// -listen and -linger flags: a Tracer when a trace file or the endpoint
// wants spans, a Profiler when -profile or the endpoint wants
// attribution, and the live endpoint serving Default's registry. What no
// flag asked for stays nil, and a nil tracer or profiler costs one
// branch per hook.
type Rig struct {
	Tracer   *obs.Tracer
	Profiler *obs.Profiler
	// Registry is obs.Default() while the endpoint serves, nil otherwise;
	// the command feeds its per-tick counters into it.
	Registry *obs.Registry

	cmd       string
	tracePath string
	linger    time.Duration
	srv       *http.Server
	entities  atomic.Int64
}

// NewRig builds cmd's rig. With listen set it registers the
// cmd+"_entities" gauge (fed by SetEntities) and starts serving
// /metrics, /trace, /profile and pprof on listen.
func NewRig(cmd, tracePath string, profile bool, listen string, linger time.Duration) (*Rig, error) {
	r := &Rig{cmd: cmd, tracePath: tracePath, linger: linger}
	if tracePath != "" || listen != "" {
		r.Tracer = obs.NewTracer(obs.DefaultSpanCap)
	}
	if profile || listen != "" {
		r.Profiler = obs.NewProfiler()
	}
	if listen == "" {
		return r, nil
	}
	r.Registry = obs.Default()
	r.Registry.Gauge(cmd+"_entities", func() float64 { return float64(r.entities.Load()) })
	srv, ln, err := Serve(listen, NewServeMux(r.Registry, r.Tracer, r.Profiler))
	if err != nil {
		return nil, err
	}
	r.srv = srv
	fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics\n", cmd, ln.Addr())
	return r, nil
}

// SetEntities sets the entity gauge the endpoint serves.
func (r *Rig) SetEntities(n int) { r.entities.Store(int64(n)) }

// Close writes the exit-time artifacts — the Chrome trace file, plus a
// human-readable timeline of the slowest retained tick on stderr — then
// keeps the endpoint serving for the linger window and shuts it down.
func (r *Rig) Close() error {
	if r.tracePath != "" {
		f, err := os.Create(r.tracePath)
		if err == nil {
			err = r.Tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote trace to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", r.cmd, r.tracePath)
		r.Tracer.WriteSlowestTimeline(os.Stderr)
	}
	if r.srv == nil {
		return nil
	}
	if r.linger > 0 {
		fmt.Fprintf(os.Stderr, "%s: lingering %v for scrapers\n", r.cmd, r.linger)
		time.Sleep(r.linger)
	}
	return r.srv.Close()
}
