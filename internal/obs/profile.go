package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gamedb/internal/metrics"
)

// sampleMask times one in (sampleMask+1) invocations per entry. The
// counters (calls, effects, fuel, reads) are exact; only wall time is
// sampled, which keeps the two time.Now calls off the hot path for
// 15/16 invocations.
const sampleMask = 15

// ProfEntry accumulates one behavior's (or trigger rule's) query-phase
// profile. All fields are atomics so parallel workers attribute without
// locks; the entry itself is created once under the Profiler's mutex
// and cached per worker. Every method is nil-safe so instrumented
// paths read cleanly when profiling is off.
type ProfEntry struct {
	name string

	ticket atomic.Int64 // sampling ticket counter (≈ calls, may lead)

	calls   atomic.Int64 // completed invocations (errors and skips included)
	errors  atomic.Int64 // invocations failed with a script error
	skips   atomic.Int64 // invocations skipped on fuel exhaustion
	fuel    atomic.Int64 // fuel consumed
	effects atomic.Int64 // effect records that survived the invocation
	reads   atomic.Int64 // read-set cells recorded (OCC policy only)

	retries   atomic.Int64 // OCC re-runs attributed to this entry
	aborts    atomic.Int64 // OCC aborts attributed to this entry
	conflicts atomic.Int64 // apply-phase dropped records attributed here

	sampleNS atomic.Int64 // summed wall time of the sampled invocations
	samples  atomic.Int64 // number of timed invocations
}

// BeginSample claims a sampling ticket: roughly one in sampleMask+1
// calls returns sampling=true with the start timestamp; the rest pay a
// single atomic add.
func (e *ProfEntry) BeginSample() (start time.Time, sampling bool) {
	if e == nil {
		return time.Time{}, false
	}
	if e.ticket.Add(1)&sampleMask != 1 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// EndSample closes a timed invocation opened by BeginSample.
func (e *ProfEntry) EndSample(start time.Time, sampling bool) {
	if !sampling || e == nil {
		return
	}
	e.sampleNS.Add(time.Since(start).Nanoseconds())
	e.samples.Add(1)
}

// AddSamples records n invocations timed together — one batched run
// of a behavior over n entities that took ns in all.
func (e *ProfEntry) AddSamples(n, ns int64) {
	if e == nil || n <= 0 {
		return
	}
	e.sampleNS.Add(ns)
	e.samples.Add(n)
}

// AddCall records one completed invocation's exact counters: fuel
// consumed, surviving effect records, and read-set cells (0 unless the
// OCC policy tracks reads).
func (e *ProfEntry) AddCall(fuel, effects, reads int64) {
	if e == nil {
		return
	}
	e.calls.Add(1)
	e.fuel.Add(fuel)
	e.effects.Add(effects)
	e.reads.Add(reads)
}

// AddError counts one script-error invocation.
func (e *ProfEntry) AddError() {
	if e != nil {
		e.errors.Add(1)
	}
}

// AddSkip counts one fuel-exhausted (skipped) invocation.
func (e *ProfEntry) AddSkip() {
	if e != nil {
		e.skips.Add(1)
	}
}

// AddRetry counts one OCC re-run of this entry's invocation.
func (e *ProfEntry) AddRetry() {
	if e != nil {
		e.retries.Add(1)
	}
}

// AddAbort counts one OCC abort of this entry's invocation.
func (e *ProfEntry) AddAbort() {
	if e != nil {
		e.aborts.Add(1)
	}
}

// AddConflict counts one apply-phase record drop attributed to this
// entry (its target despawned mid-apply, a lost despawn/post race, …).
func (e *ProfEntry) AddConflict() {
	if e != nil {
		e.conflicts.Add(1)
	}
}

// Profiler aggregates per-behavior / per-rule entries. Entry lookup
// takes a mutex, so hot paths cache the returned *ProfEntry (the world
// keeps per-worker caches keyed by behavior name and caches rule
// entries on the bound trigger itself).
type Profiler struct {
	mu      sync.Mutex
	entries map[string]*ProfEntry
}

// NewProfiler builds an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: make(map[string]*ProfEntry)}
}

// Entry returns the named entry, creating it on first use. Nil-safe:
// a nil profiler returns a nil entry, whose methods are no-ops.
func (p *Profiler) Entry(name string) *ProfEntry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[name]
	if e == nil {
		e = &ProfEntry{name: name}
		p.entries[name] = e
	}
	return e
}

// ProfRow is one entry's consistent snapshot.
type ProfRow struct {
	Name      string
	Calls     int64
	Errors    int64
	Skips     int64
	Fuel      int64
	Effects   int64
	Reads     int64
	Retries   int64
	Aborts    int64
	Conflicts int64
	// Samples and AvgNS describe the timed subsample; EstTotalNS
	// extrapolates AvgNS × Calls, the estimated total time.
	Samples    int64
	AvgNS      float64
	EstTotalNS float64
}

// Rows snapshots every entry, sorted by estimated total time
// descending (ties by name, so the report is deterministic).
func (p *Profiler) Rows() []ProfRow {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	entries := make([]*ProfEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	rows := make([]ProfRow, 0, len(entries))
	for _, e := range entries {
		r := ProfRow{
			Name:      e.name,
			Calls:     e.calls.Load(),
			Errors:    e.errors.Load(),
			Skips:     e.skips.Load(),
			Fuel:      e.fuel.Load(),
			Effects:   e.effects.Load(),
			Reads:     e.reads.Load(),
			Retries:   e.retries.Load(),
			Aborts:    e.aborts.Load(),
			Conflicts: e.conflicts.Load(),
			Samples:   e.samples.Load(),
		}
		if r.Samples > 0 {
			r.AvgNS = float64(e.sampleNS.Load()) / float64(r.Samples)
			r.EstTotalNS = r.AvgNS * float64(r.Calls)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].EstTotalNS != rows[j].EstTotalNS {
			return rows[i].EstTotalNS > rows[j].EstTotalNS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Table renders the profile as an aligned metrics.Table, the same
// report shape the experiment harness prints.
func (p *Profiler) Table() *metrics.Table {
	t := metrics.NewTable("per-behavior / per-rule profile (time sampled 1-in-16)",
		"unit", "calls", "avg time", "est total", "effects", "reads", "fuel",
		"conflicts", "retries", "aborts", "err", "skip")
	for _, r := range p.Rows() {
		t.AddRow(r.Name,
			metrics.Fnum(float64(r.Calls)),
			metrics.Fdur(r.AvgNS),
			metrics.Fdur(r.EstTotalNS),
			metrics.Fnum(float64(r.Effects)),
			metrics.Fnum(float64(r.Reads)),
			metrics.Fnum(float64(r.Fuel)),
			metrics.Fnum(float64(r.Conflicts)),
			metrics.Fnum(float64(r.Retries)),
			metrics.Fnum(float64(r.Aborts)),
			metrics.Fnum(float64(r.Errors)),
			metrics.Fnum(float64(r.Skips)))
	}
	return t
}
