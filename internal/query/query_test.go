package query

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// makeUnits builds a table of n units with position, hp and faction.
func makeUnits(t testing.TB, n int, seed int64) *entity.Table {
	t.Helper()
	schema := entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "hp", Kind: entity.KindInt, Default: entity.Int(100)},
		entity.Column{Name: "faction", Kind: entity.KindString},
	)
	tab := entity.NewTable("units", schema)
	rng := rand.New(rand.NewSource(seed))
	factions := []string{"red", "blue", "green"}
	for i := 0; i < n; i++ {
		err := tab.Insert(entity.ID(i+1), map[string]entity.Value{
			"x":       entity.Float(rng.Float64() * 100),
			"y":       entity.Float(rng.Float64() * 100),
			"hp":      entity.Int(rng.Int63n(100) + 1),
			"faction": entity.Str(factions[rng.Intn(len(factions))]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestScanProducesAllRows(t *testing.T) {
	tab := makeUnits(t, 700, 1) // bigger than two batches
	rows, d, err := Run(NewScan(tab))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 700 {
		t.Fatalf("scan returned %d rows, want 700", len(rows))
	}
	if got := d.Names()[0]; got != "units.id" {
		t.Fatalf("first column = %q", got)
	}
	if d.Len() != 5 {
		t.Fatalf("desc width = %d, want 5", d.Len())
	}
}

func TestScanSelectedColumns(t *testing.T) {
	tab := makeUnits(t, 10, 1)
	rows, d, err := Run(NewScanAs(tab, "u", []string{"hp"}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Names()[1] != "u.hp" {
		t.Fatalf("desc = %v", d.Names())
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if _, _, err := Run(NewScanAs(tab, "u", []string{"bogus"})); err == nil {
		t.Fatal("unknown column should fail at Open")
	}
}

func TestFilterAndExpressions(t *testing.T) {
	tab := makeUnits(t, 500, 2)
	plan := NewFilter(NewScan(tab), Lt(Col("units.hp"), ConstInt(50)))
	rows, d, err := Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	hpIdx, _ := d.Col("units.hp")
	want := 0
	tab.Scan(func(_ entity.ID, row []entity.Value) bool {
		if row[tab.Schema().MustCol("hp")].Int() < 50 {
			want++
		}
		return true
	})
	if len(rows) != want {
		t.Fatalf("filter returned %d, scan says %d", len(rows), want)
	}
	for _, r := range rows {
		if r[hpIdx].Int() >= 50 {
			t.Fatalf("row with hp %d passed filter", r[hpIdx].Int())
		}
	}
}

func TestExpressionArithmetic(t *testing.T) {
	d := MustDesc("a", "b")
	tup := Tuple{entity.Int(7), entity.Float(2)}
	cases := []struct {
		e    Expr
		want entity.Value
	}{
		{Add(Col("a"), ConstInt(3)), entity.Int(10)},
		{Sub(Col("a"), ConstInt(3)), entity.Int(4)},
		{Mul(Col("a"), ConstInt(2)), entity.Int(14)},
		{Div(Col("a"), ConstInt(2)), entity.Int(3)},
		{Add(Col("a"), Col("b")), entity.Float(9)},
		{Div(Col("a"), Col("b")), entity.Float(3.5)},
		{Eq(Col("a"), ConstInt(7)), entity.Bool(true)},
		{Ne(Col("a"), ConstInt(7)), entity.Bool(false)},
		{Lt(Col("b"), Col("a")), entity.Bool(true)},
		{Ge(Col("a"), ConstFloat(7.0)), entity.Bool(true)},
		{And(ConstBool(true), ConstBool(false)), entity.Bool(false)},
		{Or(ConstBool(true), ConstBool(false)), entity.Bool(true)},
		{Not(ConstBool(false)), entity.Bool(true)},
		{Neg(Col("a")), entity.Int(-7)},
		{Neg(Col("b")), entity.Float(-2)},
		{Dist2(ConstFloat(0), ConstFloat(0), ConstFloat(3), ConstFloat(4)), entity.Float(25)},
	}
	for i, c := range cases {
		if err := c.e.Bind(d); err != nil {
			t.Fatalf("case %d (%s): bind: %v", i, c.e, err)
		}
		got, err := c.e.Eval(tup)
		if err != nil {
			t.Fatalf("case %d (%s): eval: %v", i, c.e, err)
		}
		if got != c.want {
			t.Fatalf("case %d (%s): got %v, want %v", i, c.e, got, c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	d := MustDesc("s")
	tup := Tuple{entity.Str("x")}
	if err := Col("missing").Bind(d); err == nil {
		t.Fatal("binding missing column should fail")
	}
	bad := []Expr{
		Add(Col("s"), ConstInt(1)),
		And(Col("s"), ConstBool(true)),
		Not(Col("s")),
		Neg(Col("s")),
		Lt(Col("s"), ConstInt(1)),
		Div(ConstInt(1), ConstInt(0)),
	}
	for i, e := range bad {
		if err := e.Bind(d); err != nil {
			t.Fatalf("case %d: bind: %v", i, err)
		}
		if _, err := e.Eval(tup); err == nil {
			t.Fatalf("case %d (%s): expected eval error", i, e)
		}
	}
	if s := Add(Col("s"), ConstInt(1)).String(); !strings.Contains(s, "+") {
		t.Fatalf("String() = %q", s)
	}
}

func TestProject(t *testing.T) {
	tab := makeUnits(t, 20, 3)
	p, err := NewProject(NewScan(tab),
		[]Expr{Col("units.id"), Mul(Col("units.hp"), ConstInt(2))},
		[]string{"id", "hp2"})
	if err != nil {
		t.Fatal(err)
	}
	rows, d, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("desc = %v", d.Names())
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	id := rows[0][0].Int()
	hp2 := rows[0][1].Int()
	if hp2 != 2*tab.MustGet(entity.ID(id), "hp").Int() {
		t.Fatalf("hp2 = %d", hp2)
	}
	if _, err := NewProject(NewScan(tab), []Expr{Col("x")}, []string{"a", "b"}); err == nil {
		t.Fatal("mismatched names should fail")
	}
}

func TestLimitAndOrderBy(t *testing.T) {
	tab := makeUnits(t, 300, 4)
	plan := NewLimit(NewOrderBy(NewScan(tab), SortKey{Col: "units.hp", Desc: true}), 10)
	rows, d, err := Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("limit returned %d", len(rows))
	}
	hpIdx, _ := d.Col("units.hp")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][hpIdx].Int() < rows[i][hpIdx].Int() {
			t.Fatal("not sorted descending")
		}
	}
	// Ascending with secondary key.
	plan2 := NewOrderBy(NewScan(tab), SortKey{Col: "units.faction"}, SortKey{Col: "units.hp"})
	rows2, d2, err := Run(plan2)
	if err != nil {
		t.Fatal(err)
	}
	fIdx, _ := d2.Col("units.faction")
	h2, _ := d2.Col("units.hp")
	for i := 1; i < len(rows2); i++ {
		a, b := rows2[i-1], rows2[i]
		if a[fIdx].Str() > b[fIdx].Str() {
			t.Fatal("faction not ascending")
		}
		if a[fIdx] == b[fIdx] && a[h2].Int() > b[h2].Int() {
			t.Fatal("hp tie-break not ascending")
		}
	}
	if _, _, err := Run(NewOrderBy(NewScan(tab), SortKey{Col: "nope"})); err == nil {
		t.Fatal("unknown sort column should fail")
	}
}

func TestHashJoin(t *testing.T) {
	units := makeUnits(t, 100, 6)
	// A second table keyed by faction.
	bonus := entity.NewTable("bonus", entity.MustSchema(
		entity.Column{Name: "faction", Kind: entity.KindString},
		entity.Column{Name: "mult", Kind: entity.KindInt},
	))
	bonus.Insert(1, map[string]entity.Value{"faction": entity.Str("red"), "mult": entity.Int(2)})
	bonus.Insert(2, map[string]entity.Value{"faction": entity.Str("blue"), "mult": entity.Int(3)})
	j, err := NewHashJoin(NewScan(units), NewScan(bonus), "units.faction", "bonus.faction")
	if err != nil {
		t.Fatal(err)
	}
	rows, d, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	units.Scan(func(_ entity.ID, row []entity.Value) bool {
		f := row[units.Schema().MustCol("faction")].Str()
		if f == "red" || f == "blue" {
			want++
		}
		return true
	})
	if len(rows) != want {
		t.Fatalf("hash join = %d rows, want %d", len(rows), want)
	}
	fL, _ := d.Col("units.faction")
	fR, _ := d.Col("bonus.faction")
	for _, r := range rows {
		if r[fL] != r[fR] {
			t.Fatalf("join key mismatch in row: %v vs %v", r[fL], r[fR])
		}
	}
	// Unknown keys fail at Open.
	j2, _ := NewHashJoin(NewScan(units), NewScan(bonus), "units.zzz", "bonus.faction")
	if err := j2.Open(); err == nil {
		t.Fatal("unknown left key should fail")
	}
}

// TestFloatKeysFollowValueEqual: the hash join and group-by key on
// entity.Value.Key, so float keys compare as floats — a -0 key meets +0,
// and a NaN key meets nothing, not even another NaN.
func TestFloatKeysFollowValueEqual(t *testing.T) {
	negZero := entity.Float(math.Copysign(0, -1))
	nan := entity.Float(math.NaN())
	side := func(name string, keys ...entity.Value) *entity.Table {
		tab := entity.NewTable(name, entity.MustSchema(entity.Column{Name: "k", Kind: entity.KindFloat}))
		for i, k := range keys {
			if err := tab.InsertRow(entity.ID(i+1), []entity.Value{k}); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	left := side("l", negZero, nan, entity.Float(1))
	right := side("r", entity.Float(0), nan, entity.Float(2))
	j, err := NewHashJoin(NewScan(left), NewScan(right), "l.k", "r.k")
	if err != nil {
		t.Fatal(err)
	}
	rows, d, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	lk, _ := d.Col("l.k")
	rk, _ := d.Col("r.k")
	if len(rows) != 1 || !math.Signbit(rows[0][lk].Float()) || math.Signbit(rows[0][rk].Float()) {
		t.Fatalf("hash join = %v, want the one row (-0, +0)", rows)
	}

	agg, err := NewAggregate(NewScan(side("g", entity.Float(0), negZero, entity.Float(3))),
		[]string{"g.k"}, []AggSpec{{Func: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	rows, d, err = Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	ni, _ := d.Col("n")
	if len(rows) != 2 || rows[0][ni].Int() != 2 {
		t.Fatalf("group by {+0, -0, 3} = %v, want +0 and -0 in one group of 2", rows)
	}
	// Each NaN row is a group of its own.
	if agg, err = NewAggregate(NewScan(side("h", nan, nan)), []string{"h.k"},
		[]AggSpec{{Func: AggCount, As: "n"}}); err != nil {
		t.Fatal(err)
	}
	if rows, _, err = Run(agg); err != nil || len(rows) != 2 {
		t.Fatalf("group by {NaN, NaN} = %v (%v), want two groups", rows, err)
	}
}

func TestNLJoinMatchesHashJoin(t *testing.T) {
	units := makeUnits(t, 60, 7)
	others := makeUnits(t, 40, 8)
	nl, err := NewNLJoin(NewScan(units), NewScanAs(others, "o", nil),
		Eq(Col("units.faction"), Col("o.faction")))
	if err != nil {
		t.Fatal(err)
	}
	nlRows, _, err := Run(nl)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := NewHashJoin(NewScan(units), NewScanAs(others, "o", nil),
		"units.faction", "o.faction")
	if err != nil {
		t.Fatal(err)
	}
	hjRows, _, err := Run(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(nlRows) != len(hjRows) {
		t.Fatalf("NL join %d rows, hash join %d", len(nlRows), len(hjRows))
	}
}

// TestJoinEquivalenceRandomized: hash join must agree with NL join on
// random equi-join instances — the cross-operator correctness property.
func TestJoinEquivalenceRandomized(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		a := makeUnits(t, 30+trial*7, int64(500+trial))
		bTab := makeUnits(t, 20+trial*5, int64(600+trial))
		nl, err := NewNLJoin(NewScanAs(a, "a", nil), NewScanAs(bTab, "b", nil),
			Eq(Col("a.faction"), Col("b.faction")))
		if err != nil {
			t.Fatal(err)
		}
		nlN, err := Count(nl)
		if err != nil {
			t.Fatal(err)
		}
		hj, err := NewHashJoin(NewScanAs(a, "a", nil), NewScanAs(bTab, "b", nil),
			"a.faction", "b.faction")
		if err != nil {
			t.Fatal(err)
		}
		hjN, err := Count(hj)
		if err != nil {
			t.Fatal(err)
		}
		if nlN != hjN {
			t.Fatalf("trial %d: NL %d rows, hash %d rows", trial, nlN, hjN)
		}
	}
}

func TestNLJoinCrossProduct(t *testing.T) {
	a := makeUnits(t, 7, 9)
	b := makeUnits(t, 5, 10)
	j, err := NewNLJoin(NewScanAs(a, "a", []string{"hp"}), NewScanAs(b, "b", []string{"hp"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 35 {
		t.Fatalf("cross product = %d rows, want 35", len(rows))
	}
}

func TestBandJoinMatchesNaive(t *testing.T) {
	units := makeUnits(t, 300, 11)
	const radius = 8.0
	bj, err := NewBandJoin(
		NewScanAs(units, "a", []string{"x", "y"}),
		NewScanAs(units, "b", []string{"x", "y"}),
		"a.x", "a.y", "b.x", "b.y", radius)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(bj)
	if err != nil {
		t.Fatal(err)
	}
	// Naive count of ordered pairs (including self-pairs).
	var pts []spatial.Point
	units.Scan(func(id entity.ID, row []entity.Value) bool {
		pts = append(pts, spatial.Point{ID: spatial.ID(id), Pos: spatial.Vec2{
			X: row[units.Schema().MustCol("x")].Float(),
			Y: row[units.Schema().MustCol("y")].Float(),
		}})
		return true
	})
	want := 2*CountInteractionsNaive(pts, radius) + len(pts)
	if n != want {
		t.Fatalf("band join = %d pairs, naive = %d", n, want)
	}
}

func TestBandJoinValidation(t *testing.T) {
	units := makeUnits(t, 5, 12)
	if _, err := NewBandJoin(NewScan(units), NewScan(units), "a", "b", "c", "d", 0); err == nil {
		t.Fatal("zero radius should fail")
	}
	bj, _ := NewBandJoin(NewScanAs(units, "a", nil), NewScanAs(units, "b", nil),
		"a.faction", "a.y", "b.x", "b.y", 5)
	if _, _, err := Run(bj); err == nil {
		t.Fatal("non-numeric probe column should fail during execution")
	}
	bj2, _ := NewBandJoin(NewScanAs(units, "a", nil), NewScanAs(units, "b", nil),
		"a.x", "a.y", "b.faction", "b.y", 5)
	if err := bj2.Open(); err == nil {
		t.Fatal("non-numeric build column should fail at Open")
	}
}

func TestAggregate(t *testing.T) {
	tab := makeUnits(t, 500, 13)
	agg, err := NewAggregate(NewScan(tab), []string{"units.faction"}, []AggSpec{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Expr: Col("units.hp"), As: "hp_total"},
		{Func: AggMin, Expr: Col("units.hp"), As: "hp_min"},
		{Func: AggMax, Expr: Col("units.hp"), As: "hp_max"},
		{Func: AggAvg, Expr: Col("units.hp"), As: "hp_avg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, d, err := Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	// Reference computation.
	type stat struct {
		n, sum, minV, maxV int64
	}
	ref := map[string]*stat{}
	tab.Scan(func(_ entity.ID, row []entity.Value) bool {
		f := row[tab.Schema().MustCol("faction")].Str()
		hp := row[tab.Schema().MustCol("hp")].Int()
		s, ok := ref[f]
		if !ok {
			s = &stat{minV: hp, maxV: hp}
			ref[f] = s
		}
		s.n++
		s.sum += hp
		if hp < s.minV {
			s.minV = hp
		}
		if hp > s.maxV {
			s.maxV = hp
		}
		return true
	})
	fi, _ := d.Col("units.faction")
	ni, _ := d.Col("n")
	si, _ := d.Col("hp_total")
	mi, _ := d.Col("hp_min")
	xi, _ := d.Col("hp_max")
	ai, _ := d.Col("hp_avg")
	for _, r := range rows {
		s := ref[r[fi].Str()]
		if s == nil {
			t.Fatalf("unexpected group %v", r[fi])
		}
		if r[ni].Int() != s.n || r[si].Int() != s.sum ||
			r[mi].Int() != s.minV || r[xi].Int() != s.maxV {
			t.Fatalf("group %v: got %v, want %+v", r[fi], r, s)
		}
		wantAvg := float64(s.sum) / float64(s.n)
		if diff := r[ai].Float() - wantAvg; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("avg = %v, want %v", r[ai].Float(), wantAvg)
		}
	}
}

func TestAggregateGlobal(t *testing.T) {
	tab := makeUnits(t, 50, 14)
	agg, err := NewAggregate(NewScan(tab), nil, []AggSpec{
		{Func: AggCount, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 50 {
		t.Fatalf("global count = %v", rows)
	}
}

func TestAggregateValidation(t *testing.T) {
	tab := makeUnits(t, 5, 15)
	if _, err := NewAggregate(NewScan(tab), nil, nil); err == nil {
		t.Fatal("no specs should fail")
	}
	if _, err := NewAggregate(NewScan(tab), nil, []AggSpec{{Func: AggSum, Expr: Col("units.hp")}}); err == nil {
		t.Fatal("missing name should fail")
	}
	if _, err := NewAggregate(NewScan(tab),
		[]string{"a", "b", "c", "d", "e"}, []AggSpec{{Func: AggCount, As: "n"}}); err == nil {
		t.Fatal("too many group-by columns should fail")
	}
	agg, _ := NewAggregate(NewScan(tab), nil, []AggSpec{{Func: AggSum, As: "s"}})
	if err := agg.Open(); err == nil {
		t.Fatal("sum without expression should fail at Open")
	}
	agg2, _ := NewAggregate(NewScan(tab), nil, []AggSpec{{Func: AggSum, Expr: Col("units.faction"), As: "s"}})
	if err := agg2.Open(); err == nil {
		t.Fatal("sum over strings should fail")
	}
}

func TestCountInteractionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pts []spatial.Point
	for i := 0; i < 600; i++ {
		pts = append(pts, spatial.Point{
			ID:  spatial.ID(i + 1),
			Pos: spatial.Vec2{X: rng.Float64() * 200, Y: rng.Float64() * 200},
		})
	}
	const radius = 10.0
	naive := CountInteractionsNaive(pts, radius)
	indexed := CountInteractions(pts, radius)
	if naive != indexed {
		t.Fatalf("naive %d != indexed %d", naive, indexed)
	}
	for _, workers := range []int{0, 1, 2, 4, 7} {
		if got := CountInteractionsParallel(pts, radius, workers); got != naive {
			t.Fatalf("parallel(%d) = %d, want %d", workers, got, naive)
		}
	}
}

func TestCountHelper(t *testing.T) {
	tab := makeUnits(t, 123, 16)
	n, err := Count(NewScan(tab))
	if err != nil || n != 123 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}
