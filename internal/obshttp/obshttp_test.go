package obshttp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"gamedb/internal/obs"
)

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ticks_total").Add(3)
	tr := obs.NewTracer(16)
	tr.Context(0).Span(obs.SpanTick, 1, -1, time.Now())
	prof := obs.NewProfiler()
	prof.Entry("behavior/x").AddCall(1, 1, 0)

	srv, ln, err := Serve("127.0.0.1:0", NewServeMux(reg, tr, prof))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}
	if got := get("/metrics"); !strings.Contains(got, "ticks_total 3") {
		t.Fatalf("/metrics = %q", got)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(get("/trace")), &parsed); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	if got := get("/profile"); !strings.Contains(got, "behavior/x") {
		t.Fatalf("/profile = %q", got)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Fatalf("pprof cmdline empty")
	}
}

// TestRig: a rig no flag asked for is nil and inert; a full one serves
// the command's entity gauge from the default registry and, on Close,
// writes a loadable Chrome trace.
func TestRig(t *testing.T) {
	off, err := NewRig("rigoff", "", false, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if off.Tracer != nil || off.Profiler != nil || off.Registry != nil || off.Close() != nil {
		t.Fatalf("a rig with no flags set is not inert: %+v", off)
	}
	path := t.TempDir() + "/trace.json"
	r, err := NewRig("rigtest", path, true, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tracer == nil || r.Profiler == nil || r.Registry != obs.Default() {
		t.Fatalf("a full rig is missing a piece: %+v", r)
	}
	r.SetEntities(7)
	r.Tracer.Context(0).Span(obs.SpanTick, 1, -1, time.Now())
	var buf bytes.Buffer
	if err := r.Registry.WritePrometheus(&buf); err != nil || !strings.Contains(buf.String(), "rigtest_entities 7") {
		t.Fatalf("registry lacks the entity gauge (%v): %q", err, buf.String())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []any }
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file holds no events (%v): %q", err, raw)
	}
}
