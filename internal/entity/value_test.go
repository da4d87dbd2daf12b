package entity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Fatal("Int round-trip failed")
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Fatal("Float round-trip failed")
	}
	if v := Str("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Fatal("Str round-trip failed")
	}
	if v := Bool(true); v.Kind() != KindBool || !v.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Fatal("IsNull misbehaves")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string value should panic")
		}
	}()
	_ = Str("x").Int()
}

func TestValueCoercion(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Fatalf("AsFloat(Int(3)) = %v,%v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Fatal("AsFloat on string should fail")
	}
	if i, ok := Int(7).AsInt(); !ok || i != 7 {
		t.Fatalf("AsInt = %v,%v", i, ok)
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Fatalf("AsBool = %v,%v", b, ok)
	}
	if s, ok := Str("q").AsStr(); !ok || s != "q" {
		t.Fatalf("AsStr = %v,%v", s, ok)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"null":  Null(),
		"42":    Int(42),
		"2.5":   Float(2.5),
		`"hi"`:  Str("hi"),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v-kind) = %q, want %q", v.Kind(), got, want)
		}
	}
}

func TestKindByName(t *testing.T) {
	for _, name := range []string{"int", "float", "string", "bool"} {
		k, ok := KindByName(name)
		if !ok || k.String() != name {
			t.Errorf("KindByName(%q) = %v,%v", name, k, ok)
		}
	}
	if _, ok := KindByName("vec3"); ok {
		t.Error("KindByName should reject unknown names")
	}
}

// randValue generates an arbitrary value for property tests.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63n(100) - 50)
	case 2:
		return Float(rng.NormFloat64())
	case 3:
		return Str(string(rune('a' + rng.Intn(26))))
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

// Values implements quick.Generator via a wrapper type.
type quickValue struct{ V Value }

// Generate implements testing/quick.Generator.
func (quickValue) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickValue{V: randValue(rng)})
}

func TestCompareProperties(t *testing.T) {
	antisym := func(a, b quickValue) bool {
		return Compare(a.V, b.V) == -Compare(b.V, a.V)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	reflexive := func(a quickValue) bool { return Compare(a.V, a.V) == 0 }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	transitive := func(a, b, c quickValue) bool {
		x, y, z := a.V, b.V, c.V
		// sort the triple by Compare, then verify order is consistent
		if Compare(x, y) > 0 {
			x, y = y, x
		}
		if Compare(y, z) > 0 {
			y, z = z, y
		}
		if Compare(x, y) > 0 {
			x, y = y, x
		}
		return Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) <= 0
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	eqConsistent := func(a, b quickValue) bool {
		if a.V.Equal(b.V) {
			return Compare(a.V, b.V) == 0
		}
		return true
	}
	if err := quick.Check(eqConsistent, nil); err != nil {
		t.Errorf("==/Compare consistency: %v", err)
	}
}

// TestValueEqualKeepsFloatSemantics pins the equality the store uses for
// no-op writes: floats compare as floats, so -0 is +0 and NaN equals
// nothing. Value's == compares payload bits and would get -0 wrong (a
// -0 written over +0 would land and move the world hash); a check that
// took any two NaNs as equal would drop a NaN written over a NaN.
func TestValueEqualKeepsFloatSemantics(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	nan := Float(math.NaN())
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{Float(0), negZero, true},
		{nan, nan, false},
		{Float(1.5), Float(1.5), true},
		{Int(1), Float(1), false},
		{Int(-7), Int(-7), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Null(), Null(), true},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.a.Key() == c.b.Key(); got != c.want {
			t.Errorf("%v.Key() == %v.Key() is %v, want %v", c.a, c.b, got, c.want)
		}
	}

	// newTab holds id 1 at x = stored.
	newTab := func(stored Value) *Table {
		tab := NewTable("p", MustSchema(Column{Name: "x", Kind: KindFloat}))
		if err := tab.InsertRow(1, []Value{stored}); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// storedNaN and otherNaN are NaNs with different payloads.
	storedNaN := Float(math.Float64frombits(0x7ff8000000000002))
	otherNaN := Float(math.Float64frombits(0x7ff8000000000001))
	writes := []struct {
		name string
		do   func(tab *Table, v Value) error
	}{
		{"Set", func(tab *Table, v Value) error { return tab.Set(1, "x", v) }},
		{"SetColumnBatch", func(tab *Table, v Value) error {
			_, err := tab.SetColumnBatch("x", []ID{1}, []Value{v})
			return err
		}},
	}
	for _, w := range writes {
		// A write Equal to the stored value is a no-op: +0 stays +0.
		tab := newTab(Float(0))
		if err := w.do(tab, negZero); err != nil {
			t.Fatal(err)
		}
		if math.Signbit(tab.MustGet(1, "x").Float()) {
			t.Errorf("%s of -0 over +0 stored -0", w.name)
		}
		// NaN equals nothing, so NaN over NaN is a write: the new
		// payload lands.
		tab = newTab(storedNaN)
		if err := w.do(tab, otherNaN); err != nil {
			t.Fatal(err)
		}
		if got, want := math.Float64bits(tab.MustGet(1, "x").Float()), math.Float64bits(otherNaN.Float()); got != want {
			t.Errorf("%s of NaN over NaN stored %#x, want %#x (a write)", w.name, got, want)
		}
	}
	// An add whose sum is Equal to the stored value is a no-op too:
	// -0 + +0 is +0, which is -0, so -0 stays.
	tab := newTab(negZero)
	if _, _, err := tab.AddColumnBatchRows("x", []ID{1}, []Value{Float(0)}, nil); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(tab.MustGet(1, "x").Float()) {
		t.Error("AddColumnBatchRows of +0 to -0 stored +0")
	}
	// A NaN sum is a write too, but one no test can see: a NaN plus
	// anything keeps the stored NaN's payload on amd64, so the write
	// leaves the same bits.
}
