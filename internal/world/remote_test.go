package world

import (
	"slices"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// borderPairPack is a two-world border: writers read-modify-write the v
// of every nearby store (kind 1) and count the stores they saw in their
// own n. A writer's invocation with a mirrored store in reach is a
// border invocation: its remote half forwards with the store's read, and
// its local half (the n write) is held for the barrier.
const borderPairPack = `
<contentpack name="border-pair">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="kind" kind="int"/>
    <column name="v" kind="int"/>
    <column name="n" kind="int"/>
  </schema>
  <archetype name="store" table="units">
    <set column="kind" value="1"/>
  </archetype>
  <archetype name="writer" table="units" script="bump"/>
  <script name="bump">
fn on_tick(self) {
  for id in nearby(self, 12.0) {
    if get(id, "kind") == 1 {
      set(id, "v", get(id, "v") + 1);
      set(self, "n", get(self, "n") + 1);
    }
  }
}
  </script>
</contentpack>`

// borderPair builds two occ worlds split at x = 200, as shards 0 and 1
// of a grid: each owns a column of stores and writers beside the
// boundary and mirrors the other's stores as routed ghosts, so both
// forward every tick and validate what the other forwards.
func borderPair(t *testing.T) [2]*World {
	t.Helper()
	var ws [2]*World
	for s := range ws {
		ws[s] = loadPack(t, Config{Seed: 5, CellSize: 16, Workers: 1, ConflictPolicy: ConflictOCC}, borderPairPack)
		ws[s].SetShardIndex(s)
	}
	const rows = 24
	for s, w := range ws {
		side := float64(2*s - 1) // shard 0 left of the boundary, shard 1 right
		for r := 0; r < rows; r++ {
			y := 10 + 20*float64(r)
			store := spawnID(s, r, 0)
			for o, wo := range ws {
				if err := wo.SpawnAt(store, "store", spatial.Vec2{X: 200 + 4*side, Y: y}); err != nil {
					t.Fatal(err)
				}
				if o != s && (!wo.SetGhost(store, true) || !wo.SetGhostRoute(store, s)) {
					t.Fatalf("mirror of store %d refused", store)
				}
			}
			if err := w.SpawnAt(spawnID(s, r, 1), "writer", spatial.Vec2{X: 200 + 6*side, Y: y}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ws
}

// spawnID gives the pair's entities disjoint ids: shard s, row r, kind k.
func spawnID(s, r, k int) entity.ID { return entity.ID(1 + s*1000 + r*2 + k) }

// exchange runs one barrier's effect rounds between the pair as the
// shard peer does: each side's outbound batch for the other is encoded,
// decoded into the receiver's one reused batch and queued; both
// validate; the verdicts' union is withheld from both exchange merges
// and re-run where the invocation came from.
type exchange struct {
	enc      wire.Enc
	dec      *wire.Dec
	in       RemoteEffectBatch
	verdicts [2][]ForeignInvalidation
	invalid  map[ForeignKey]struct{}
	reruns   []ForeignInvalidation
}

func newExchange() *exchange {
	return &exchange{dec: wire.NewDec(nil, wire.NewInterner()), invalid: make(map[ForeignKey]struct{})}
}

func (x *exchange) run(t *testing.T, ws [2]*World) {
	var outs [2]map[int]*RemoteEffectBatch
	for s, w := range ws {
		outs[s] = w.TakeOutbound()
	}
	for s, w := range ws {
		x.enc.Reset()
		AppendRemoteBatch(&x.enc, outs[1-s][s])
		x.dec.Reset(x.enc.Bytes())
		DecodeRemoteBatch(x.dec, &x.in)
		if err := x.dec.Err(); err != nil {
			t.Fatal(err)
		}
		w.QueueForeign(1-s, &x.in)
	}
	clear(x.invalid)
	for s, w := range ws {
		x.verdicts[s] = w.ValidateForeign()
		for _, v := range x.verdicts[s] {
			x.invalid[v.Key] = struct{}{}
		}
	}
	for _, w := range ws {
		w.ExchangeApply(x.invalid)
	}
	for s, w := range ws {
		x.reruns = x.reruns[:0]
		for _, vs := range x.verdicts {
			for _, v := range vs {
				if v.Key.Shard == s {
					x.reruns = append(x.reruns, v)
				}
			}
		}
		w.RerunForeign(x.reruns)
	}
}

// TestRemoteForwardCycleAllocFree pins the cross-shard forward path to
// zero allocations a tick once its arenas have grown: the occ partition
// with its held local halves and per-owner read sets, the batch encode
// and decode, queueing, validation, the exchange merge and the re-runs
// all reuse what the last tick left.
func TestRemoteForwardCycleAllocFree(t *testing.T) {
	ws := borderPair(t)
	x := newExchange()
	forwarded, invalidated := 0, 0
	cycle := func() {
		for _, w := range ws {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			forwarded += st.EffectsForwarded
			invalidated += st.RemoteInvalidations
		}
		x.run(t, ws)
	}
	for i := 0; i < 30; i++ {
		cycle()
	}
	if forwarded == 0 || invalidated == 0 {
		t.Fatalf("the pair forwarded %d records and invalidated %d invocations; the cycle exercises nothing", forwarded, invalidated)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a forward cycle allocates %.2f times, want 0", allocs)
	}
}

// TestRemoteQueueCopiesReads: the barrier decodes every source's batch
// into one reused RemoteEffectBatch, so QueueForeign must copy what it
// queues. Batch A is decoded and queued, then batch B is decoded into
// the same batch and queued; A's queued read-sets must still be A's.
func TestRemoteQueueCopiesReads(t *testing.T) {
	batch := func(src entity.ID, reads ...readCell) *RemoteEffectBatch {
		return &RemoteEffectBatch{
			Recs:   []RemoteEffect{{E: Effect{Kind: EffectSet, Src: src, Target: reads[0].id, Col: "v", Val: entity.Int(1)}, Gen: 1}},
			invocs: []foreignInvoc{{key: ForeignKey{Src: src, Gen: 1}, readLo: 0, readHi: len(reads)}},
			reads:  reads,
		}
	}
	a := batch(3, readCell{id: 9, col: "v"}, readCell{id: 10, col: "x"})
	b := batch(4, readCell{id: 11, col: "y"}, readCell{id: 12, col: "n"})
	w := New(Config{})
	var e wire.Enc
	d := wire.NewDec(nil, wire.NewInterner())
	var in RemoteEffectBatch
	for s, src := range []*RemoteEffectBatch{a, b} {
		e.Reset()
		AppendRemoteBatch(&e, src)
		d.Reset(e.Bytes())
		DecodeRemoteBatch(d, &in)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		w.QueueForeign(s+1, &in)
	}
	if len(w.inInvocs) != 2 {
		t.Fatalf("%d invocations queued, want 2", len(w.inInvocs))
	}
	for i, want := range []*RemoteEffectBatch{a, b} {
		inv := w.inInvocs[i]
		if got := w.inReads[inv.readLo:inv.readHi]; inv.key.Src != want.invocs[0].key.Src || !slices.Equal(got, want.reads) {
			t.Fatalf("queued invocation %d: source %d reads %v, want source %d reads %v",
				i, inv.key.Src, got, want.invocs[0].key.Src, want.reads)
		}
	}
}
