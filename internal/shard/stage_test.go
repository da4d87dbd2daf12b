package shard

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// stagedEntry is one staged migration or ghost candidate, its row
// copied out: what a barrier frame carries for one destination.
type stagedEntry struct {
	id       entity.ID
	owner    int
	table    string
	behavior string
	row      []entity.Value
}

// staging is one peer's staged barrier: migrations and candidates per
// destination shard.
type staging struct{ migs, cands [][]stagedEntry }

// stageReference is the staging walk round C ran before the owned walk:
// every table by name, its ids in row order, the ghost and position
// probes per id, and the band test against every region.
func stageReference(t *testing.T, p *Peer) staging {
	t.Helper()
	st := staging{migs: make([][]stagedEntry, p.n), cands: make([][]stagedEntry, p.n)}
	for _, name := range p.w.TableNames() {
		tab, _ := p.w.Table(name)
		for _, id := range tab.IDs() {
			if p.w.IsGhost(id) {
				continue
			}
			pos, ok := p.w.Pos(id)
			if !ok {
				continue
			}
			row, err := tab.AppendRow(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			owner := p.part.Locate(pos)
			if owner != p.self {
				beh, _ := p.w.Behavior(id)
				st.migs[owner] = append(st.migs[owner], stagedEntry{id: id, owner: owner, table: name, behavior: beh, row: row})
			}
			if !p.band.on {
				continue
			}
			for di := 0; di < p.n; di++ {
				if p.band.mirrors(di, owner, pos) {
					st.cands[di] = append(st.cands[di], stagedEntry{id: id, owner: owner, table: name, row: row})
				}
			}
		}
	}
	return st
}

// staged runs p's stageBarrier and copies out what it staged.
func staged(t *testing.T, p *Peer) staging {
	t.Helper()
	if err := p.stageBarrier(); err != nil {
		t.Fatal(err)
	}
	st := staging{migs: make([][]stagedEntry, p.n), cands: make([][]stagedEntry, p.n)}
	for d := 0; d < p.n; d++ {
		for _, m := range p.outMigs[d] {
			st.migs[d] = append(st.migs[d], stagedEntry{id: m.id, owner: d, table: m.table, behavior: m.behavior, row: p.arena[m.rowLo:m.rowHi]})
		}
		for _, c := range p.outCands[d] {
			st.cands[d] = append(st.cands[d], stagedEntry{id: c.id, owner: c.owner, table: c.table, row: p.arena[c.rowLo:c.rowHi]})
		}
	}
	return st
}

// sameEntries compares two destinations' entries as sets: the same ids,
// each with the same owner, table, behavior and row, values bit for bit.
func sameEntries(t *testing.T, what string, got, want []stagedEntry) {
	t.Helper()
	byID := func(a, b stagedEntry) int { return cmp.Compare(a.id, b.id) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	if len(got) != len(want) {
		t.Fatalf("%s: staged %d entries, the reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.id != w.id || g.owner != w.owner || g.table != w.table || g.behavior != w.behavior || !slices.Equal(g.row, w.row) {
			t.Fatalf("%s: staged %+v where the reference has %+v", what, g, w)
		}
	}
}

// TestStageBarrierMatchesReference: the owned walk with the band
// shortcut stages, for every destination, exactly the migrations and
// candidates of the per-table reference walk. The crowd drifts fast
// enough that most of it leaves the map, rebalances move the column
// bounds, and every few ticks the partition is put back to the even
// split for one staging, where a static table of scouts sits exactly
// on, one ulp either side of, and a band width (± one ulp) from every
// bound and the map's edges. A non-spatial table stages nothing.
func TestStageBarrierMatchesReference(t *testing.T) {
	cfg := benchConfig(8)
	cfg.RebalanceEvery = 3
	cfg.RebalanceMaxShift = 0.1
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := driftScenario.Seed(rt, Crowd{Units: 2000, Side: 2000, Seed: 38, Speed: 80}); err != nil {
		t.Fatal(err)
	}
	even, err := NewPartitioner(cfg.World, cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateTable("scouts", entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateTable("props", entity.MustSchema(entity.Column{Name: "n", Kind: entity.KindInt})); err != nil {
		t.Fatal(err)
	}
	xs, ys := bandProbes(even.xs, cfg.GhostBand), bandProbes(even.ys, cfg.GhostBand)
	for i, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		y := ys[i%len(ys)]
		if math.IsNaN(y) {
			y = 1000
		}
		for _, pos := range []spatial.Vec2{{X: x, Y: y}, {X: y, Y: x}, {X: x, Y: 1000}, {X: 1000, Y: x}} {
			if _, err := rt.SpawnRaw("scouts", map[string]entity.Value{"x": entity.Float(pos.X), "y": entity.Float(pos.Y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.SpawnRaw("props", map[string]entity.Value{"n": entity.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}

	var migs, cands int
	compare := func(when string) {
		t.Helper()
		for _, p := range rt.peers {
			want := stageReference(t, p)
			got := staged(t, p)
			for d := 0; d < p.n; d++ {
				sameEntries(t, when+": migrations", got.migs[d], want.migs[d])
				sameEntries(t, when+": candidates", got.cands[d], want.cands[d])
				migs += len(want.migs[d])
				cands += len(want.cands[d])
			}
		}
	}
	for tick := 1; tick <= 60; tick++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		compare("live partition")
		if tick%5 != 0 {
			continue
		}
		// Stage once on the even split, then put the live bounds back:
		// staging writes only the staging buffers, so the run goes on
		// as it would have.
		live, bands := make([]*Partitioner, len(rt.peers)), make([]ghostBand, len(rt.peers))
		for i, p := range rt.peers {
			live[i], bands[i] = p.part, p.band
			p.part, p.band = even, newGhostBand(cfg.GhostBand, even)
		}
		compare("even split")
		for i, p := range rt.peers {
			p.part, p.band = live[i], bands[i]
		}
	}
	if migs == 0 || cands == 0 {
		t.Fatalf("the reference staged %d migrations and %d candidates: the test reaches nothing", migs, cands)
	}
	var off int
	for _, p := range rt.peers {
		for _, o := range p.w.AppendOwnedPos(nil) {
			if o.Spatial && !cfg.World.Contains(o.Pos) {
				off++
			}
		}
	}
	if off < 1000 {
		t.Fatalf("only %d owned entities are off the map after the run", off)
	}
}

// TestStageBarrierAllocFree: after warm-up, staging the barrier — the
// owned walk, the band test, the row copies — allocates nothing.
func TestStageBarrierAllocFree(t *testing.T) {
	rt, err := New(benchConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := driftScenario.Seed(rt, Crowd{Units: 4000, Side: 2000, Seed: 2009}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range rt.peers {
		stage := func() {
			if err := p.stageBarrier(); err != nil {
				t.Fatal(err)
			}
		}
		stage()
		if allocs := testing.AllocsPerRun(20, stage); allocs != 0 {
			t.Fatalf("shard %d: staging allocates %.1f times a barrier, want 0", i, allocs)
		}
	}
}
