package replica

import (
	"math/rand"
	"runtime"
	"testing"

	"gamedb/internal/spatial"
)

// benchCrowd is the benchmark's fan-out shape (bench/workloads.go,
// fanout.border) without a world behind it: 2 000 entities and 10 000
// client windows of radius 64 on a 2000×2000 map of 32-unit cells, one
// MTU of budget but for 5 % of the clients throttled to an eighth of it
// (they degrade and keep a backlog), 2 % of the windows moving per tick.
// Every entity takes a short step every tick and loses a hit point now
// and then.
type benchCrowd struct {
	h     *Hub
	rng   *rand.Rand
	pos   []spatial.Vec2
	hp    []float64
	conns []*Conn
	tick  int64
}

const benchSide = 2000.0

func borderSpecs() []FieldSpec {
	return []FieldSpec{
		{Name: "x", Class: Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "y", Class: Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "hp", Class: Exact},
		{Name: "kb", Class: Cosmetic, Period: 4},
	}
}

func newBenchCrowd() *benchCrowd {
	b := &benchCrowd{
		h: NewHub(HubConfig{
			Specs: borderSpecs(), Cell: 32, ByteBudget: 1500, MaxQueue: 1 << 30,
		}),
		rng: rand.New(rand.NewSource(2009)),
		pos: make([]spatial.Vec2, 2000),
		hp:  make([]float64, 2000),
	}
	for i := range b.pos {
		b.pos[i] = spatial.Vec2{X: b.rng.Float64() * benchSide, Y: b.rng.Float64() * benchSide}
		b.hp[i] = 100
	}
	for i := 0; i < 10000; i++ {
		focus := spatial.Vec2{X: b.rng.Float64() * benchSide, Y: b.rng.Float64() * benchSide}
		budget := 0
		if b.rng.Float64() < 0.05 {
			budget = 1500 / 8
		}
		b.conns = append(b.conns, b.h.AddClient(i, focus, 64, budget))
	}
	return b
}

// intake opens the next tick and feeds it every entity.
func (b *benchCrowd) intake() {
	b.tick++
	b.h.BeginTick(b.tick)
	var vals [4]float64
	for i := range b.pos {
		p := &b.pos[i]
		p.X = min(max(p.X+b.rng.Float64()*6-3, 0), benchSide)
		p.Y = min(max(p.Y+b.rng.Float64()*6-3, 0), benchSide)
		if b.rng.Intn(8) == 0 {
			b.hp[i]--
		}
		vals = [4]float64{p.X, p.Y, b.hp[i], float64(b.tick)}
		b.h.UpdateEntity(ID(i+1), *p, vals[:])
	}
	for d := 0; d < len(b.conns)/50; d++ {
		c := b.conns[b.rng.Intn(len(b.conns))]
		b.h.MoveClient(c, spatial.Vec2{
			X: min(max(c.Focus.X+b.rng.Float64()*128-64, 0), benchSide),
			Y: min(max(c.Focus.Y+b.rng.Float64()*128-64, 0), benchSide),
		})
	}
}

// intakeStill is intake for a crowd that repeats itself: every window
// stays put and every entity steps back and forth inside its cell on a
// twenty-tick cycle — x wobbles under epsilon (so it ships on MaxAge,
// through the due index), y jumps over it, hp changes on one tick in
// four — so each tick's traffic has been seen before.
func (b *benchCrowd) intakeStill() {
	b.tick++
	b.h.BeginTick(b.tick)
	for i := range b.pos {
		// Clear of cell edges: the wobble stays inside.
		at := spatial.Vec2{X: float64(i%50)*40 + 8 + 0.2*float64((b.tick+int64(i))%2), Y: float64(i/50)*40 + 8}
		vals := [4]float64{at.X, at.Y + float64(b.tick%2), float64((b.tick + int64(i)) / 4 % 5), float64(b.tick % 20)}
		b.h.UpdateEntity(ID(i+1), at, vals[:])
	}
}

// TestHubSteadyStateAllocs: once a crowd that repeats itself has grown
// every list, opening a tick and taking in 2 000 updates allocates
// nothing, and flushing them to 10 000 clients allocates what the
// worker pool's fan-out does, not something per client.
func TestHubSteadyStateAllocs(t *testing.T) {
	c := newBenchCrowd()
	for i := 0; i < 60; i++ {
		c.intakeStill()
		c.h.FlushTick()
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var intake, flush uint64
	const ticks = 40
	for i := 0; i < ticks; i++ {
		m0 := mallocs()
		c.intakeStill()
		m1 := mallocs()
		c.h.FlushTick()
		intake, flush = intake+m1-m0, flush+mallocs()-m1
	}
	t.Logf("%d messages a tick; intake allocated %d objects in %d ticks, flush %d",
		c.h.MsgsTotal.Load()/c.tick, intake, ticks, flush)
	if intake != 0 {
		t.Errorf("BeginTick and intake allocated %d objects in %d ticks, want none", intake, ticks)
	}
	if flush > 32*ticks {
		t.Errorf("FlushTick allocated %d objects in %d ticks for 10 000 clients, budget 32 a tick", flush, ticks)
	}
}

// BenchmarkHubFlush is one steady-state FlushTick: about twenty covered
// cells a client, most of them quiet this tick.
func BenchmarkHubFlush(b *testing.B) {
	c := newBenchCrowd()
	for i := 0; i < 20; i++ {
		c.intake()
		c.h.FlushTick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.intake()
		b.StartTimer()
		c.h.FlushTick()
	}
	b.ReportMetric(float64(c.h.MsgsTotal.Load())/float64(c.tick), "msgs/tick")
}

// BenchmarkHubFirstFlush is the connect-time snapshot storm: a seeded
// population, 10 000 windows that have never been flushed.
func BenchmarkHubFirstFlush(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newBenchCrowd()
		c.intake()
		b.StartTimer()
		c.h.FlushTick()
	}
}
