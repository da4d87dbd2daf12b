package entity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTableAgainstModel drives random operation sequences against both
// the table and a naive map-based reference model, then checks full
// state agreement — the model-based property test for the store.
func TestTableAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("m", MustSchema(
			Column{Name: "a", Kind: KindInt},
			Column{Name: "b", Kind: KindString},
		))
		type row struct {
			a int64
			b string
		}
		model := map[ID]row{}
		next := ID(1)
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1: // insert
				id := next
				next++
				r := row{a: rng.Int63n(50), b: string(rune('a' + rng.Intn(4)))}
				if err := tab.Insert(id, map[string]Value{"a": Int(r.a), "b": Str(r.b)}); err != nil {
					return false
				}
				model[id] = r
			case 2: // update
				for id, r := range model {
					r.a = rng.Int63n(50)
					if err := tab.Set(id, "a", Int(r.a)); err != nil {
						return false
					}
					model[id] = r
					break
				}
			case 3: // delete
				for id := range model {
					if err := tab.Delete(id); err != nil {
						return false
					}
					delete(model, id)
					break
				}
			case 4: // point read
				for id, r := range model {
					got, err := tab.Get(id, "b")
					if err != nil || got != Str(r.b) {
						return false
					}
					break
				}
			}
		}
		// Full-state agreement.
		if tab.Len() != len(model) {
			return false
		}
		seen := 0
		agree := true
		tab.Scan(func(id ID, vals []Value) bool {
			seen++
			r, ok := model[id]
			if !ok || vals[0] != Int(r.a) || vals[1] != Str(r.b) {
				agree = false
				return false
			}
			return true
		})
		if !agree || seen != len(model) {
			return false
		}
		// The id index holds exactly the rows.
		return tab.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
