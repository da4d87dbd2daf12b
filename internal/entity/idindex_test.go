package entity

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// idPalette is the ids checkIDIndexOps draws from: 0, the first page's
// edges, the dense bound ±1, a shard script-id stream (2^32 + i + k·n
// for shard i of n) and provisional spawn ids (2^62 + k), so near ids
// and far ids share one operation sequence.
var idPalette = func() []ID {
	ids := []ID{0, 1, 2, 1023, 1024, 1025, 2047, 2048, denseIDs - 1, denseIDs, denseIDs + 1}
	const shards = 4
	for k := ID(0); k < 3; k++ {
		for i := ID(0); i < shards; i++ {
			ids = append(ids, 1<<32+i+k*shards)
		}
		ids = append(ids, 1<<62+k)
	}
	return ids
}()

// checkIDIndexOps decodes data into Put / Delete / Get operations on an
// IDIndex and a map[ID]int32 model, checking every Get and Len against
// the model, then every id the sequence touched.
func checkIDIndexOps(t *testing.T, data []byte) {
	t.Helper()
	var x IDIndex
	model := map[ID]int32{}
	touched := map[ID]bool{}
	for step := 0; len(data) >= 3; step++ {
		op, pick, arg := data[0], data[1], data[2]
		data = data[3:]
		var id ID
		switch {
		case int(pick) < len(idPalette):
			id = idPalette[pick]
		case pick < 128: // a dense id anywhere below the bound
			id = ID(pick)<<14 | ID(arg)<<3 | ID(op>>5)
		case len(data) >= 8: // any id at all
			id = ID(binary.LittleEndian.Uint64(data))
			data = data[8:]
		default:
			id = ID(pick)
		}
		touched[id] = true
		switch op % 3 {
		case 0:
			slot := int32(arg) << (op % 24)
			x.Put(id, slot)
			model[id] = slot
		case 1:
			x.Delete(id)
			delete(model, id)
		}
		want, wantOK := model[id]
		if !wantOK {
			want = -1
		}
		if got, ok := x.Get(id); got != want || ok != wantOK {
			t.Fatalf("step %d: Get(%d) = %d, %v, model %d, %v", step, id, got, ok, want, wantOK)
		}
		if x.Len() != len(model) {
			t.Fatalf("step %d: Len() = %d, model holds %d", step, x.Len(), len(model))
		}
	}
	for id := range touched {
		want, wantOK := model[id]
		if !wantOK {
			want = -1
		}
		if got, ok := x.Get(id); got != want || ok != wantOK {
			t.Fatalf("end: Get(%d) = %d, %v, model %d, %v", id, got, ok, want, wantOK)
		}
	}
}

func TestIDIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		checkIDIndexOps(t, data)
	}
}

func FuzzIDIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 0, 5, 0, 3, 7, 1, 0, 0, 0, 0, 9, 1, 3, 0}) // id 0 and 1023: put, put, delete, re-put, delete
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		checkIDIndexOps(t, data)
	})
}

// TestIDIndexPagesOnlyNearIDs pins the layout: a far id takes no page,
// and a page is allocated only for the ids put into it.
func TestIDIndexPagesOnlyNearIDs(t *testing.T) {
	var x IDIndex
	x.Put(denseIDs, 1)
	x.Put(1<<62, 2)
	if len(x.pages) != 0 {
		t.Fatalf("far ids grew the page table to %d", len(x.pages))
	}
	x.Put(5*idPageSize+3, 7)
	pages := 0
	for _, pg := range x.pages {
		if pg != nil {
			pages++
		}
	}
	if pages != 1 || x.Len() != 3 {
		t.Fatalf("one near id: %d pages, Len %d", pages, x.Len())
	}
}

// TestIDIndexSteadyStateAllocs despawns and respawns ids on pages
// already touched — a table's churn once its id range is warm — and
// wants no allocation.
func TestIDIndexSteadyStateAllocs(t *testing.T) {
	var x IDIndex
	const n = 3 * idPageSize
	for id := ID(1); id <= n; id++ {
		x.Put(id, int32(id))
	}
	round := 0
	churn := func() {
		round++
		for id := ID(1); id <= n; id += 7 {
			x.Delete(id)
		}
		for id := ID(1); id <= n; id += 7 {
			x.Put(id, int32(round))
		}
	}
	if got := testing.AllocsPerRun(50, churn); got != 0 {
		t.Fatalf("despawn and respawn on touched pages allocates %.1f objects, want 0", got)
	}
	if x.Len() != n {
		t.Fatalf("Len() = %d after churn, want %d", x.Len(), n)
	}

	tab := NewTable("churn", MustSchema(Column{Name: "hp", Kind: KindInt}))
	row := []Value{Int(1)}
	for id := ID(1); id <= n; id++ {
		if err := tab.InsertRow(id, row); err != nil {
			t.Fatal(err)
		}
	}
	respawn := func() {
		for id := ID(1); id <= n; id += 7 {
			if err := tab.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for id := ID(1); id <= n; id += 7 {
			if err := tab.InsertRow(id, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	respawn() // the id, column and listener slices reach their high-water mark
	if got := testing.AllocsPerRun(50, respawn); got != 0 {
		t.Fatalf("a table's despawn and respawn allocates %.1f objects, want 0", got)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTableCheckCatchesAStaleIndex corrupts a table's index both ways
// Check guards: a row whose id maps elsewhere, and an id with no row.
func TestTableCheckCatchesAStaleIndex(t *testing.T) {
	tab := NewTable("p", MustSchema(Column{Name: "hp", Kind: KindInt}))
	for id := ID(1); id <= 3; id++ {
		tab.Insert(id, nil)
	}
	tab.Insert(1<<40, nil)
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	tab.rowOf.Put(2, 0)
	if tab.Check() == nil {
		t.Fatal("Check missed a row whose id maps to another row")
	}
	tab.rowOf.Put(2, 1)
	tab.rowOf.Put(99, 0)
	if tab.Check() == nil {
		t.Fatal("Check missed an indexed id with no row")
	}
}
