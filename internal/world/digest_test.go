package world

import (
	"math"
	"testing"

	"gamedb/internal/entity"
)

// digestRow is one row a digest test inserts: its id and cells.
type digestRow struct {
	id    entity.ID
	cells []entity.Value
}

// digestWorld builds a world with one table "u" of cols and inserts rows
// in the order given.
func digestWorld(t *testing.T, cols []entity.Column, rows ...digestRow) *World {
	t.Helper()
	w := New(Config{Seed: 1})
	if _, err := w.CreateTable("u", entity.MustSchema(cols...)); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.InsertRow(r.id, "u", r.cells); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

var (
	intCol   = []entity.Column{{Name: "n", Kind: entity.KindInt}}
	floatCol = []entity.Column{{Name: "n", Kind: entity.KindFloat}}
	mixedCol = []entity.Column{
		{Name: "x", Kind: entity.KindFloat}, {Name: "n", Kind: entity.KindInt},
		{Name: "ok", Kind: entity.KindBool}, {Name: "tag", Kind: entity.KindString},
	}
)

func mixedRow(id entity.ID, x float64, n int64) digestRow {
	return digestRow{id, []entity.Value{entity.Float(x), entity.Int(n), entity.Bool(n%2 == 0), entity.Str("t")}}
}

// TestDigestIgnoresRowOrder: the digest is a function of the row set,
// not of insertion order or of where delete-swaps left rows in storage.
func TestDigestIgnoresRowOrder(t *testing.T) {
	a, b, c, d := mixedRow(1, 0.5, 7), mixedRow(2, -3, 8), mixedRow(3, 1e9, 9), mixedRow(40, 2, 10)
	want := digestWorld(t, mixedCol, a, b, c).Digest()
	if got := digestWorld(t, mixedCol, c, a, b).Digest(); got != want {
		t.Fatalf("insertion order moved the digest: %#x, want %#x", got, want)
	}
	w := digestWorld(t, mixedCol, d, a, b, c)
	if err := w.Despawn(40); err != nil { // swaps the last row into slot 0
		t.Fatal(err)
	}
	if got := w.Digest(); got != want {
		t.Fatalf("a delete-swap moved the digest: %#x, want %#x", got, want)
	}
	if want == digestWorld(t, mixedCol).Digest() {
		t.Fatal("three rows digest like none")
	}
}

// TestDigestLeavesGhostsOut: marking a row a ghost removes exactly its
// contribution, and unmarking it puts it back.
func TestDigestLeavesGhostsOut(t *testing.T) {
	a, b, c := mixedRow(1, 0.5, 7), mixedRow(2, -3, 8), mixedRow(3, 1e9, 9)
	w := digestWorld(t, mixedCol, a, b, c)
	all := w.Digest()
	w.SetGhost(2, true)
	if got, want := w.Digest(), all-digestWorld(t, mixedCol, b).Digest(); got != want {
		t.Fatalf("ghosted row 2: digest %#x, want %#x", got, want)
	}
	if got, want := w.Digest(), digestWorld(t, mixedCol, a, c).Digest(); got != want {
		t.Fatalf("ghosted row 2: digest %#x, the owned rows' %#x", got, want)
	}
	w.SetGhost(2, false)
	if got := w.Digest(); got != all {
		t.Fatalf("unmarked ghost: digest %#x, want %#x", got, all)
	}
}

// TestDigestSeparatesStates: each pair differs in one cell's bits, kind,
// string boundary or placement, and must digest differently.
func TestDigestSeparatesStates(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	one := func(cols []entity.Column, v ...entity.Value) *World {
		return digestWorld(t, cols, digestRow{5, v})
	}
	strCols := []entity.Column{{Name: "a", Kind: entity.KindString}, {Name: "b", Kind: entity.KindString}}
	xy := []entity.Column{{Name: "x", Kind: entity.KindFloat}, {Name: "y", Kind: entity.KindFloat}}
	for _, c := range []struct {
		name string
		a, b *World
	}{
		{"int +1", one(intCol, entity.Int(41)), one(intCol, entity.Int(42))},
		{"int -1", one(intCol, entity.Int(41)), one(intCol, entity.Int(40))},
		{"float one ulp", one(floatCol, entity.Float(0.1)), one(floatCol, entity.Float(math.Nextafter(0.1, 1)))},
		{"-0 and +0", one(floatCol, entity.Float(math.Copysign(0, -1))), one(floatCol, entity.Float(0))},
		{"two NaN payloads", one(floatCol, entity.Float(nan1)), one(floatCol, entity.Float(nan2))},
		{"bool flip", one([]entity.Column{{Name: "n", Kind: entity.KindBool}}, entity.Bool(true)),
			one([]entity.Column{{Name: "n", Kind: entity.KindBool}}, entity.Bool(false))},
		{"int 1 and the float of its bits", one(intCol, entity.Int(1)), one(floatCol, entity.Float(math.Float64frombits(1)))},
		{"string boundary", one(strCols, entity.Str("ab"), entity.Str("c")), one(strCols, entity.Str("a"), entity.Str("bc"))},
		{"two cells of a row swapped", one(xy, entity.Float(1), entity.Float(2)), one(xy, entity.Float(2), entity.Float(1))},
		{"two rows swapping a cell",
			digestWorld(t, intCol, digestRow{1, []entity.Value{entity.Int(1)}}, digestRow{2, []entity.Value{entity.Int(2)}}),
			digestWorld(t, intCol, digestRow{1, []entity.Value{entity.Int(2)}}, digestRow{2, []entity.Value{entity.Int(1)}})},
	} {
		if c.a.Digest() == c.b.Digest() {
			t.Errorf("%s: both digest to %#x", c.name, c.a.Digest())
		}
	}
}

// TestDigestSumsAcrossWorlds: rows split across worlds sum to the
// digest of one world holding them all, and a row counted on two worlds
// does not.
func TestDigestSumsAcrossWorlds(t *testing.T) {
	a, b := mixedRow(1, 0.5, 7), mixedRow(2, -3, 8)
	whole := digestWorld(t, mixedCol, a, b).Digest()
	if got := digestWorld(t, mixedCol, a).Digest() + digestWorld(t, mixedCol, b).Digest(); got != whole {
		t.Fatalf("split rows sum to %#x, one world holds %#x", got, whole)
	}
	if got := digestWorld(t, mixedCol, a, b).Digest() + digestWorld(t, mixedCol, b).Digest(); got == whole {
		t.Fatal("a row counted on two worlds left the sum unchanged")
	}
}

// TestDigestAllocFree: digesting a world, ghosts and strings included,
// allocates nothing.
func TestDigestAllocFree(t *testing.T) {
	w := digestWorld(t, mixedCol, mixedRow(1, 0.5, 7), mixedRow(2, -3, 8), mixedRow(3, 1e9, 9))
	w.SetGhost(3, true)
	if n := testing.AllocsPerRun(100, func() { w.Digest() }); n != 0 {
		t.Fatalf("Digest allocates %v times a call, want 0", n)
	}
}
