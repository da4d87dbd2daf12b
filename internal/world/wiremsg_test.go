package world

import (
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

func randWireValue(rng *rand.Rand) entity.Value {
	switch rng.Intn(5) {
	case 0:
		return entity.Int(rng.Int63() - rng.Int63())
	case 1:
		return entity.Float(rng.NormFloat64())
	case 2:
		return entity.Str([]string{"", "hp", "x", "raider_speed"}[rng.Intn(4)])
	case 3:
		return entity.Bool(rng.Intn(2) == 0)
	default:
		return entity.Null()
	}
}

// randEffect draws a record whose one string fits its kind: a column for
// Set and Add, an archetype for Spawn, an event name for Post, none for
// Despawn.
func randEffect(rng *rand.Rand) Effect {
	e := Effect{
		Kind:   EffectKind(rng.Intn(5)),
		Src:    entity.ID(rng.Uint64() >> 1),
		Seq:    int32(rng.Int31() - rng.Int31()),
		Target: entity.ID(rng.Uint64() >> 1),
		Val:    randWireValue(rng),
		Pos:    spatial.Vec2{X: rng.NormFloat64(), Y: rng.NormFloat64()},
	}
	switch e.Kind {
	case EffectSet, EffectAdd:
		e.Col = []string{"", "x", "y", "met"}[rng.Intn(4)]
	case EffectSpawn:
		e.Col = []string{"unit", "raider"}[rng.Intn(2)]
	case EffectPost:
		e.Col = []string{"ping", "hit"}[rng.Intn(2)]
	}
	return e
}

// batchesEqual requires b to be a's bit-exact copy: Val by == (which
// compares payload bits) and positions by their IEEE-754 bits.
func batchesEqual(t *testing.T, a, b *RemoteEffectBatch) {
	t.Helper()
	if len(a.Recs) != len(b.Recs) || len(a.invocs) != len(b.invocs) {
		t.Fatalf("batch shape: got %d/%d recs/invocs, want %d/%d",
			len(b.Recs), len(b.invocs), len(a.Recs), len(a.invocs))
	}
	for i := range a.Recs {
		ra, rb := a.Recs[i], b.Recs[i]
		if ra.Gen != rb.Gen || ra.E.Kind != rb.E.Kind || ra.E.Src != rb.E.Src ||
			ra.E.Seq != rb.E.Seq || ra.E.Target != rb.E.Target || ra.E.Col != rb.E.Col ||
			ra.E.Val != rb.E.Val ||
			math.Float64bits(ra.E.Pos.X) != math.Float64bits(rb.E.Pos.X) ||
			math.Float64bits(ra.E.Pos.Y) != math.Float64bits(rb.E.Pos.Y) {
			t.Fatalf("rec %d mismatch: got %+v want %+v", i, rb, ra)
		}
	}
	for i := range a.invocs {
		ia, ib := a.invocs[i], b.invocs[i]
		ra, rb := a.reads[ia.readLo:ia.readHi], b.reads[ib.readLo:ib.readHi]
		if ia.key.Src != ib.key.Src || ia.key.Gen != ib.key.Gen || ia.retries != ib.retries ||
			!slices.Equal(ra, rb) {
			t.Fatalf("invoc %d mismatch: got %+v reads %v, want %+v reads %v", i, ib, rb, ia, ra)
		}
	}
}

// randBatch draws a batch of up to 7 records and 2 OCC invocations.
func randBatch(rng *rand.Rand) RemoteEffectBatch {
	var b RemoteEffectBatch
	for i := 0; i < rng.Intn(8); i++ {
		b.Recs = append(b.Recs, RemoteEffect{E: randEffect(rng), Gen: rng.Int63()})
	}
	for i := 0; i < rng.Intn(3); i++ {
		inv := foreignInvoc{
			key:     ForeignKey{Src: entity.ID(rng.Uint64() >> 1), Gen: rng.Int63()},
			retries: rng.Intn(4),
			readLo:  len(b.reads),
		}
		for j := 0; j < rng.Intn(4); j++ {
			b.reads = append(b.reads, readCell{id: entity.ID(rng.Uint64() >> 1), col: "hp"})
		}
		inv.readHi = len(b.reads)
		b.invocs = append(b.invocs, inv)
	}
	return b
}

// TestRemoteBatchRoundTrip drives randomized batches — including empty
// ones, despawn-only batches, and OCC read-set metadata — through
// encode→decode and checks identity.
func TestRemoteBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var e wire.Enc
	in := wire.NewInterner()
	var got RemoteEffectBatch
	for iter := 0; iter < 100; iter++ {
		var b RemoteEffectBatch
		switch iter % 4 {
		case 0: // empty
		case 1: // despawn-only feed
			for i := 0; i < rng.Intn(5)+1; i++ {
				b.Recs = append(b.Recs, RemoteEffect{
					E:   Effect{Kind: EffectDespawn, Src: entity.ID(i + 1), Target: entity.ID(i + 1)},
					Gen: int64(iter),
				})
			}
		default: // mixed with OCC metadata
			b = randBatch(rng)
		}
		e.Reset()
		AppendRemoteBatch(&e, &b)
		d := wire.NewDec(e.Bytes(), in)
		DecodeRemoteBatch(d, &got) // into the last iteration's batch

		if d.Err() != nil {
			t.Fatalf("iter %d: decode: %v", iter, d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("iter %d: %d leftover bytes", iter, d.Remaining())
		}
		batchesEqual(t, &b, &got)
	}
}

// TestVerdictsRoundTrip checks validation-verdict encode→decode
// identity, empty slices included.
func TestVerdictsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var e wire.Enc
	for iter := 0; iter < 50; iter++ {
		vs := make([]ForeignInvalidation, rng.Intn(6))
		for i := range vs {
			vs[i] = ForeignInvalidation{
				Key:     ForeignKey{Shard: rng.Intn(8), Src: entity.ID(rng.Uint64() >> 1), Gen: rng.Int63()},
				Retries: rng.Intn(5),
			}
		}
		e.Reset()
		AppendVerdicts(&e, vs)
		d := wire.NewDec(e.Bytes(), nil)
		got := DecodeVerdicts(d, nil)
		if d.Err() != nil {
			t.Fatalf("decode: %v", d.Err())
		}
		if len(got) != len(vs) {
			t.Fatalf("len: got %d want %d", len(got), len(vs))
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("verdict %d: got %+v want %+v", i, got[i], vs[i])
			}
		}
	}
}

// TestRemoteBatchCorrupt checks decode rejects truncated payloads and
// absurd counts without allocating or panicking.
func TestRemoteBatchCorrupt(t *testing.T) {
	var e wire.Enc
	b := RemoteEffectBatch{
		Recs:   []RemoteEffect{{E: Effect{Kind: EffectSet, Src: 5, Target: 5, Col: "x", Val: entity.Float(1)}, Gen: 9}},
		invocs: []foreignInvoc{{key: ForeignKey{Src: 5, Gen: 9}, retries: 1, readLo: 0, readHi: 1}},
		reads:  []readCell{{id: 7, col: "x"}},
	}
	AppendRemoteBatch(&e, &b)
	full := e.Bytes()
	var got RemoteEffectBatch
	for i := 0; i < len(full); i++ {
		d := wire.NewDec(full[:i], nil)
		DecodeRemoteBatch(d, &got)
		if d.Err() == nil {
			t.Fatalf("truncated batch at %d decoded without error", i)
		}
	}
	// Absurd record count.
	e.Reset()
	e.Uvarint(1 << 50)
	d := wire.NewDec(e.Bytes(), nil)
	DecodeRemoteBatch(d, &got)
	if d.Err() == nil {
		t.Fatalf("oversized record count accepted")
	}
	// Absurd verdict count.
	d = wire.NewDec(e.Bytes(), nil)
	if DecodeVerdicts(d, nil); d.Err() == nil {
		t.Fatalf("oversized verdict count accepted")
	}
}

// TestEffectWireBytesUnchanged pins the barrier's effect encoding to the
// bytes the encoder wrote while Effect still had a separate Name field:
// folding the name into Col must not move a byte. The batch holds one
// record of each kind and an OCC invocation with reads.
func TestEffectWireBytesUnchanged(t *testing.T) {
	const want = "050e00030209026870015300000000000000000000000000000000000e0103040901780200000000000000800000000000000000" +
		"00000000000000000010020400808081808080808040000006726169646572000000000000f83f00000000000002c0100304020b00" +
		"000000000000000000000000000000000000120405050c0002000000000000c03f0470696e67000000000000000000000000000000" +
		"0001030e0402090268700a046d6f6f64"
	b := RemoteEffectBatch{
		Recs: []RemoteEffect{
			{Gen: 7, E: Effect{Kind: EffectSet, Src: 3, Seq: 1, Target: 9, Col: "hp", Val: entity.Int(-42)}},
			{Gen: 7, E: Effect{Kind: EffectAdd, Src: 3, Seq: 2, Target: 9, Col: "x", Val: entity.Float(math.Copysign(0, -1))}},
			{Gen: 8, E: Effect{Kind: EffectSpawn, Src: 4, Seq: 0, Target: provBase + 4*maxSpawnsPerCall, Col: "raider", Pos: spatial.Vec2{X: 1.5, Y: -2.25}}},
			{Gen: 8, E: Effect{Kind: EffectDespawn, Src: 4, Seq: 1, Target: 11}},
			{Gen: 9, E: Effect{Kind: EffectPost, Src: 5, Seq: -3, Target: 12, Col: "ping", Val: entity.Float(0.125)}},
		},
		invocs: []foreignInvoc{{key: ForeignKey{Src: 3, Gen: 7}, retries: 2, readLo: 0, readHi: 2}},
		reads:  []readCell{{id: 9, col: "hp"}, {id: 10, col: "mood"}},
	}
	var e wire.Enc
	AppendRemoteBatch(&e, &b)
	if got := hex.EncodeToString(e.Bytes()); got != want {
		t.Fatalf("effect wire bytes moved:\n got %s\nwant %s", got, want)
	}
	var got RemoteEffectBatch
	d := wire.NewDec(e.Bytes(), nil)
	if DecodeRemoteBatch(d, &got); d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), d.Remaining())
	}
	batchesEqual(t, &b, &got)
}

// FuzzRemoteBatchCodec feeds arbitrary bytes to DecodeRemoteBatch and
// DecodeVerdicts. A decode either latches an error or yields a value whose
// encoding decodes back to the same value, bit for bit; it never panics,
// and no decoded slice outgrows the payload (every element costs at least
// one byte, so a bigger slice was sized from an unchecked count). Decoding
// into a batch that holds an earlier decode — as the barrier reuses one
// batch for every source — yields what a fresh batch does.
func FuzzRemoteBatchCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	var e wire.Enc
	for i := 0; i < 16; i++ {
		b := randBatch(rng)
		e.Reset()
		AppendRemoteBatch(&e, &b)
		f.Add(slices.Clone(e.Bytes()))
	}
	// The earlier decode the reused batch holds: records, invocations and
	// reads, so stale entries past the new decode's would show.
	erng := rand.New(rand.NewSource(36))
	earlier := randBatch(erng)
	for len(earlier.reads) < 4 {
		earlier = randBatch(erng)
	}
	e.Reset()
	AppendRemoteBatch(&e, &earlier)
	earlierBytes := slices.Clone(e.Bytes())
	e.Reset()
	AppendVerdicts(&e, []ForeignInvalidation{{Key: ForeignKey{Shard: 2, Src: 9, Gen: 4}, Retries: 1}})
	f.Add(slices.Clone(e.Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := wire.NewInterner()
		var b RemoteEffectBatch
		d := wire.NewDec(data, in)
		DecodeRemoteBatch(d, &b)
		if cap(b.Recs) > len(data) || cap(b.invocs) > len(data) || cap(b.reads) > len(data) {
			t.Fatalf("%d-byte payload decoded into caps %d recs, %d invocs, %d reads",
				len(data), cap(b.Recs), cap(b.invocs), cap(b.reads))
		}
		var reused RemoteEffectBatch
		if DecodeRemoteBatch(wire.NewDec(earlierBytes, in), &reused); len(reused.reads) == 0 {
			t.Fatal("the earlier decode holds no reads")
		}
		dr := wire.NewDec(data, in)
		DecodeRemoteBatch(dr, &reused)
		if (dr.Err() == nil) != (d.Err() == nil) || dr.Remaining() != d.Remaining() {
			t.Fatalf("decode into a used batch: err %v, %d bytes left; into a fresh one: err %v, %d left",
				dr.Err(), dr.Remaining(), d.Err(), d.Remaining())
		}
		if d.Err() == nil {
			batchesEqual(t, &b, &reused)
			e.Reset()
			AppendRemoteBatch(&e, &b)
			var again RemoteEffectBatch
			d2 := wire.NewDec(e.Bytes(), in)
			if DecodeRemoteBatch(d2, &again); d2.Err() != nil || d2.Remaining() != 0 {
				t.Fatalf("re-decode: err %v, %d bytes left", d2.Err(), d2.Remaining())
			}
			batchesEqual(t, &b, &again)
		}

		d = wire.NewDec(data, nil)
		vs := DecodeVerdicts(d, nil)
		if cap(vs) > len(data) {
			t.Fatalf("%d-byte payload decoded into %d verdict slots", len(data), cap(vs))
		}
		if d.Err() == nil {
			e.Reset()
			AppendVerdicts(&e, vs)
			d2 := wire.NewDec(e.Bytes(), nil)
			again := DecodeVerdicts(d2, nil)
			if d2.Err() != nil || d2.Remaining() != 0 || !slices.Equal(vs, again) {
				t.Fatalf("verdicts: %+v re-decoded as %+v (err %v)", vs, again, d2.Err())
			}
		}
	})
}
