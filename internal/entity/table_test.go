package entity

import (
	"errors"
	"math/rand"
	"testing"
)

func playerSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "hp", Kind: KindInt, Default: Int(100)},
		Column{Name: "x", Kind: KindFloat},
		Column{Name: "name", Kind: KindString},
		Column{Name: "alive", Kind: KindBool, Default: Bool(true)},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty column name should fail")
	}
	if _, err := NewSchema(Column{Name: "a", Kind: KindInvalid}); err == nil {
		t.Error("invalid kind should fail")
	}
	if _, err := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "a", Kind: KindInt},
	); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt, Default: Str("x")}); err == nil {
		t.Error("mismatched default should fail")
	}
}

func TestSchemaDerivations(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindFloat})
	s2, err := s.WithColumn(Column{Name: "c", Kind: KindBool})
	if err != nil || s2.Len() != 3 {
		t.Fatalf("WithColumn: %v len=%d", err, s2.Len())
	}
	if s.Len() != 2 {
		t.Fatal("WithColumn mutated the receiver")
	}
	s3, err := s2.WithoutColumn("b")
	if err != nil || s3.Len() != 2 {
		t.Fatalf("WithoutColumn: %v", err)
	}
	if _, ok := s3.Col("b"); ok {
		t.Fatal("b should be gone")
	}
	s4, err := s3.Renamed("a", "alpha")
	if err != nil {
		t.Fatalf("Renamed: %v", err)
	}
	if _, ok := s4.Col("alpha"); !ok {
		t.Fatal("alpha should exist after rename")
	}
	if _, err := s.WithoutColumn("zzz"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("WithoutColumn missing: %v", err)
	}
}

func TestTableInsertDefaultsAndErrors(t *testing.T) {
	tab := NewTable("players", playerSchema(t))
	if err := tab.Insert(1, map[string]Value{"name": Str("ada")}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := tab.MustGet(1, "hp"); got != Int(100) {
		t.Fatalf("default hp = %v", got)
	}
	if got := tab.MustGet(1, "alive"); got != Bool(true) {
		t.Fatalf("default alive = %v", got)
	}
	if err := tab.Insert(1, nil); !errors.Is(err, ErrDupID) {
		t.Fatalf("dup insert err = %v", err)
	}
	if err := tab.Insert(2, map[string]Value{"bogus": Int(1)}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown col err = %v", err)
	}
	if err := tab.Insert(2, map[string]Value{"hp": Str("full")}); !errors.Is(err, ErrKind) {
		t.Fatalf("kind mismatch err = %v", err)
	}
	if tab.Len() != 1 {
		t.Fatalf("failed inserts must not add rows; len=%d", tab.Len())
	}
}

func TestTableSetGetDelete(t *testing.T) {
	tab := NewTable("players", playerSchema(t))
	for id := ID(1); id <= 3; id++ {
		if err := tab.Insert(id, map[string]Value{"x": Float(float64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Set(2, "hp", Int(55)); err != nil {
		t.Fatal(err)
	}
	if got := tab.MustGet(2, "hp"); got != Int(55) {
		t.Fatalf("hp = %v", got)
	}
	if err := tab.Set(9, "hp", Int(1)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Set missing row err = %v", err)
	}
	if err := tab.Set(2, "hp", Float(1)); !errors.Is(err, ErrKind) {
		t.Fatalf("Set kind err = %v", err)
	}
	// Delete middle row; swap-remove must keep the others reachable.
	if err := tab.Delete(2); err != nil {
		t.Fatal(err)
	}
	_, has1 := tab.RowIndex(1)
	_, has2 := tab.RowIndex(2)
	_, has3 := tab.RowIndex(3)
	if has2 || !has1 || !has3 {
		t.Fatal("RowIndex after delete wrong")
	}
	if got := tab.MustGet(3, "x"); got != Float(3) {
		t.Fatalf("row 3 x = %v after swap-remove", got)
	}
	if err := tab.Delete(2); !errors.Is(err, ErrNoRow) {
		t.Fatalf("double delete err = %v", err)
	}
	if _, err := tab.Get(1, "nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("Get bad col err = %v", err)
	}
}

func TestTableRowAndScan(t *testing.T) {
	tab := NewTable("players", playerSchema(t))
	if err := tab.Insert(7, map[string]Value{"name": Str("bob"), "hp": Int(5)}); err != nil {
		t.Fatal(err)
	}
	row, err := tab.AppendRow(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[tab.Schema().MustCol("name")] != Str("bob") {
		t.Fatalf("row = %v", row)
	}
	tab.Insert(8, nil)
	var seen []ID
	tab.Scan(func(id ID, row []Value) bool {
		seen = append(seen, id)
		return true
	})
	if len(seen) != 2 {
		t.Fatalf("scan saw %v", seen)
	}
	// Early stop.
	seen = seen[:0]
	tab.Scan(func(id ID, _ []Value) bool {
		seen = append(seen, id)
		return false
	})
	if len(seen) != 1 {
		t.Fatalf("early-stop scan saw %v", seen)
	}
}

// TestTableIndexesStayConsistent runs random inserts, sets and deletes
// and checks the id index after every one: it holds exactly the rows,
// each live id resolves to its row, and a deleted id resolves to none.
func TestTableIndexesStayConsistent(t *testing.T) {
	tab := NewTable("players", playerSchema(t))
	rng := rand.New(rand.NewSource(7))
	live := map[ID]bool{}
	var dead []ID
	next := ID(1)
	for op := 0; op < 3000; op++ {
		switch rng.Intn(4) {
		case 0, 1: // insert
			id := next
			next++
			err := tab.Insert(id, map[string]Value{
				"hp":   Int(rng.Int63n(100)),
				"name": Str(string(rune('a' + rng.Intn(5)))),
			})
			if err != nil {
				t.Fatal(err)
			}
			live[id] = true
		case 2: // update
			for id := range live {
				if err := tab.Set(id, "hp", Int(rng.Int63n(100))); err != nil {
					t.Fatal(err)
				}
				break
			}
		case 3: // delete
			for id := range live {
				if err := tab.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				dead = append(dead, id)
				break
			}
		}
		if err := tab.Check(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if tab.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(live))
	}
	for id := range live {
		if r, ok := tab.RowIndex(id); !ok || tab.IDAt(r) != id {
			t.Fatalf("live id %d resolves to row %d (%v)", id, r, ok)
		}
	}
	for _, id := range dead {
		if _, ok := tab.RowIndex(id); ok {
			t.Fatalf("deleted id %d still resolves", id)
		}
	}
}

func TestChangeNotifications(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	var changes []Change
	tab.OnChange(func(c Change) { changes = append(changes, c) })
	tab.Insert(1, nil)
	tab.Set(1, "hp", Int(50))
	tab.Set(1, "hp", Int(50)) // no-op: same value, no event
	tab.Delete(1)
	if len(changes) != 3 {
		t.Fatalf("got %d changes, want 3: %+v", len(changes), changes)
	}
	if changes[0].Kind != ChangeInsert || changes[1].Kind != ChangeUpdate || changes[2].Kind != ChangeDelete {
		t.Fatalf("change kinds = %v %v %v", changes[0].Kind, changes[1].Kind, changes[2].Kind)
	}
	if changes[1].Col != "hp" || changes[1].Old != Int(100) || changes[1].New != Int(50) {
		t.Fatalf("update change = %+v", changes[1])
	}
}

func TestDDLOperations(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	tab.Insert(1, map[string]Value{"hp": Int(42)})
	if err := tab.AddColumn(Column{Name: "mana", Kind: KindInt, Default: Int(10)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.MustGet(1, "mana"); got != Int(10) {
		t.Fatalf("backfilled mana = %v", got)
	}
	tab.Insert(2, map[string]Value{"mana": Int(77)})
	if got := tab.MustGet(2, "mana"); got != Int(77) {
		t.Fatalf("mana = %v", got)
	}
	if err := tab.RenameColumn("mana", "mp"); err != nil {
		t.Fatal(err)
	}
	if got := tab.MustGet(2, "mp"); got != Int(77) {
		t.Fatalf("mp after rename = %v", got)
	}
	if err := tab.DropColumn("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get(1, "x"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("x should be gone, err = %v", err)
	}
	// hp survives the drop (column index shifting must not corrupt data).
	if got := tab.MustGet(1, "hp"); got != Int(42) {
		t.Fatalf("hp after drop = %v", got)
	}
	if err := tab.DropColumn("zzz"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("DropColumn missing err = %v", err)
	}
}

// TestDDLKeepsIndexesWorking checks that ids still find their rows
// after a rename and a drop, including a delete that swaps the last
// row into the hole across the narrowed columns.
func TestDDLKeepsIndexesWorking(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	for id := ID(1); id <= 3; id++ {
		if err := tab.Insert(id, map[string]Value{"hp": Int(int64(id) * 10), "name": Str(string(rune('a' + id)))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.RenameColumn("hp", "health"); err != nil {
		t.Fatal(err)
	}
	if err := tab.DropColumn("name"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	for id := ID(2); id <= 3; id++ {
		if got := tab.MustGet(id, "health"); got != Int(int64(id)*10) {
			t.Fatalf("health of %d after DDL and delete = %v", id, got)
		}
	}
}

func TestColValues(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	tab.Insert(1, map[string]Value{"hp": Int(7)})
	vals, err := tab.ColValues("hp")
	if err != nil || len(vals) != 1 || vals[0] != Int(7) {
		t.Fatalf("ColValues = %v, %v", vals, err)
	}
	if _, err := tab.ColValues("zz"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("ColValues missing err = %v", err)
	}
}

func TestInsertRowPositional(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	row := []Value{Int(1), Float(2), Str("n"), Bool(false)}
	if err := tab.InsertRow(5, row); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's slice must not affect the table.
	row[0] = Int(999)
	if got := tab.MustGet(5, "hp"); got != Int(1) {
		t.Fatalf("hp = %v; InsertRow must copy", got)
	}
	if err := tab.InsertRow(6, []Value{Int(1)}); err == nil {
		t.Fatal("short row should fail")
	}
	if err := tab.InsertRow(6, []Value{Str("x"), Float(2), Str("n"), Bool(false)}); !errors.Is(err, ErrKind) {
		t.Fatalf("kind err = %v", err)
	}
}
