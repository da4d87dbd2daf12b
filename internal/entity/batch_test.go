package entity

import (
	"errors"
	"testing"
)

func batchTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("units", MustSchema(
		Column{Name: "hp", Kind: KindInt, Default: Int(10)},
		Column{Name: "x", Kind: KindFloat},
		Column{Name: "tag", Kind: KindString},
	))
	for i := ID(1); i <= 5; i++ {
		if err := tab.Insert(i, map[string]Value{"x": Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestSetColumnBatchMatchesSequentialSet(t *testing.T) {
	batch := batchTable(t)
	seq := batchTable(t)
	ids := []ID{1, 3, 5, 3} // duplicate: last write wins
	vals := []Value{Int(7), Int(8), Int(9), Int(11)}
	skipped, err := batch.SetColumnBatch("hp", ids, vals)
	if err != nil || skipped != 0 {
		t.Fatalf("batch: skipped=%d err=%v", skipped, err)
	}
	for i, id := range ids {
		if err := seq.Set(id, "hp", vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := ID(1); i <= 5; i++ {
		if b, s := batch.MustGet(i, "hp"), seq.MustGet(i, "hp"); b != s {
			t.Fatalf("id %d: batch %v, sequential %v", i, b, s)
		}
	}
	if got := batch.MustGet(3, "hp").Int(); got != 11 {
		t.Fatalf("duplicate id: last write should win, got %d", got)
	}
}

func TestSetColumnBatchSkipsAndErrors(t *testing.T) {
	tab := batchTable(t)
	skipped, err := tab.SetColumnBatch("hp", []ID{1, 99, 2}, []Value{Int(1), Int(2), Str("bad")})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("want 2 skips (missing id, kind mismatch), got %d", skipped)
	}
	if tab.MustGet(1, "hp").Int() != 1 {
		t.Fatal("valid row in a batch with skips should still apply")
	}
	if tab.MustGet(2, "hp").Int() != 10 {
		t.Fatal("kind-mismatched row should leave the default")
	}
	if _, err := tab.SetColumnBatch("nope", []ID{1}, []Value{Int(1)}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown column: got %v", err)
	}
	if _, err := tab.SetColumnBatch("hp", []ID{1, 2}, []Value{Int(1)}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSetColumnBatchDoesNotNotifyListeners(t *testing.T) {
	// The batch entry points are the apply side of the effect pipeline:
	// derived state reconciles after the batch (spatial MoveSlots), so
	// per-row update notifications are deliberately skipped.
	tab := batchTable(t)
	calls := 0
	tab.OnChange(func(Change) { calls++ })
	if _, err := tab.SetColumnBatch("hp", []ID{1, 2}, []Value{Int(1), Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.AddColumnBatchRows("hp", []ID{1}, []Value{Int(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("batch writes notified %d times; batch contract is zero", calls)
	}
}

func TestAddColumnBatchSemantics(t *testing.T) {
	tab := batchTable(t)
	// Deltas apply in slice order, coercing to the column kind; missing
	// ids and uncoercible deltas skip.
	skipped, _, err := tab.AddColumnBatchRows("hp", []ID{1, 1, 99, 2}, []Value{Int(5), Int(-2), Int(1), Str("x")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("want 2 skips, got %d", skipped)
	}
	if got := tab.MustGet(1, "hp").Int(); got != 13 {
		t.Fatalf("summed adds: want 13, got %d", got)
	}
	// Int deltas coerce onto float columns.
	if _, _, err := tab.AddColumnBatchRows("x", []ID{3}, []Value{Int(2)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := tab.MustGet(3, "x").Float(); got != 5 {
		t.Fatalf("float add: want 5, got %v", got)
	}
	// A non-numeric column skips every row.
	skipped, _, err = tab.AddColumnBatchRows("tag", []ID{1, 2}, []Value{Int(1), Int(1)}, nil)
	if err != nil || skipped != 2 {
		t.Fatalf("non-numeric column: skipped=%d err=%v", skipped, err)
	}
}
