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
	if !s.Equal(s) || s.Equal(s2) {
		t.Fatal("Equal misbehaves")
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
	if tab.Has(2) || !tab.Has(1) || !tab.Has(3) {
		t.Fatal("Has after delete wrong")
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
	row, err := tab.Row(7)
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

func TestTableIndexesStayConsistent(t *testing.T) {
	tab := NewTable("players", playerSchema(t))
	if err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateOrderedIndex("hp"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := map[ID]bool{}
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
				if err := tab.Set(id, "name", Str(string(rune('a'+rng.Intn(5))))); err != nil {
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
				break
			}
		}
	}
	// Cross-check indexed lookups against scans for every letter and a hp range.
	for r := 'a'; r <= 'e'; r++ {
		idxIDs, err := tab.LookupEq("name", Str(string(r)))
		if err != nil {
			t.Fatal(err)
		}
		want := map[ID]bool{}
		tab.Scan(func(id ID, row []Value) bool {
			if row[tab.Schema().MustCol("name")] == Str(string(r)) {
				want[id] = true
			}
			return true
		})
		if len(idxIDs) != len(want) {
			t.Fatalf("name=%c: index %d rows, scan %d rows", r, len(idxIDs), len(want))
		}
		for _, id := range idxIDs {
			if !want[id] {
				t.Fatalf("name=%c: index returned unexpected id %d", r, id)
			}
		}
	}
	idxIDs, err := tab.LookupRange("hp", Int(20), Int(60))
	if err != nil {
		t.Fatal(err)
	}
	var scanCount int
	tab.Scan(func(id ID, row []Value) bool {
		hp := row[tab.Schema().MustCol("hp")].Int()
		if hp >= 20 && hp <= 60 {
			scanCount++
		}
		return true
	})
	if len(idxIDs) != scanCount {
		t.Fatalf("hp range: index %d, scan %d", len(idxIDs), scanCount)
	}
}

func TestLookupWithoutIndexFallsBackToScan(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	tab.Insert(1, map[string]Value{"hp": Int(10)})
	tab.Insert(2, map[string]Value{"hp": Int(30)})
	ids, err := tab.LookupEq("hp", Int(30))
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("LookupEq scan path = %v, %v", ids, err)
	}
	ids, err = tab.LookupRange("hp", Int(5), Int(20))
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("LookupRange scan path = %v, %v", ids, err)
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

func TestDDLKeepsIndexesWorking(t *testing.T) {
	tab := NewTable("p", playerSchema(t))
	tab.CreateOrderedIndex("hp")
	tab.CreateHashIndex("name")
	tab.Insert(1, map[string]Value{"hp": Int(10), "name": Str("a")})
	tab.Insert(2, map[string]Value{"hp": Int(20), "name": Str("b")})
	if err := tab.RenameColumn("hp", "health"); err != nil {
		t.Fatal(err)
	}
	ids, err := tab.LookupRange("health", Int(15), Null())
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("range after rename = %v, %v", ids, err)
	}
	if err := tab.DropColumn("name"); err != nil {
		t.Fatal(err)
	}
	if tab.HasHashIndex("name") {
		t.Fatal("dropping a column must drop its index")
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
