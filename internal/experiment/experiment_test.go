package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// TestAllDriversRunQuick executes every experiment in quick mode and
// checks each produces a non-degenerate table. This is the integration
// test of the whole reproduction suite.
func TestAllDriversRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			tbl := d.Run(true)
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", d.ID)
			}
			if tbl.Title == "" || len(tbl.Header) == 0 {
				t.Fatalf("%s table missing title/header", d.ID)
			}
			out := tbl.String()
			if len(out) < 50 {
				t.Fatalf("%s renders suspiciously small:\n%s", d.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E7"); !ok {
		t.Fatal("E7 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// parseSpeedup extracts the trailing "Nx" cell as a float.
func parseSpeedup(cell string) (float64, bool) {
	cell = strings.TrimSuffix(cell, "x")
	f, err := strconv.ParseFloat(cell, 64)
	return f, err == nil
}

// TestE1ShapeIndexedWins asserts the core claim of E1: at the largest n,
// the indexed band join beats the naive loop by a growing factor.
func TestE1ShapeIndexedWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := E1Pairwise(true)
	first, ok1 := parseSpeedup(tbl.Rows[0][4])
	last, ok2 := parseSpeedup(tbl.Rows[len(tbl.Rows)-1][4])
	if !ok1 || !ok2 {
		t.Fatalf("unparsable speedups: %v", tbl.Rows)
	}
	if last <= 1 {
		t.Fatalf("indexed join should win at large n; speedup=%v", last)
	}
	if last <= first {
		t.Fatalf("speedup should grow with n: first=%v last=%v", first, last)
	}
}

// TestE7ShapeEventKeyedProtectsImportantEvents asserts E7's core claim.
func TestE7ShapeEventKeyedProtectsImportantEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := E7Checkpointing(true)
	var eventKeyedLost, rarePeriodicLost string
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "event-keyed") {
			eventKeyedLost = row[6]
		}
		if row[0] == "periodic(6000)" && row[1] == "0" {
			rarePeriodicLost = row[6]
		}
	}
	if eventKeyedLost != "0" {
		t.Fatalf("event-keyed lost important events: %q", eventKeyedLost)
	}
	if rarePeriodicLost == "0" || rarePeriodicLost == "" {
		t.Fatalf("rare periodic checkpointing should lose important events, got %q", rarePeriodicLost)
	}
}

// TestE11ShapeRestrictedRejectsAllRunaways asserts E11's core claim.
func TestE11ShapeRestrictedRejectsAllRunaways(t *testing.T) {
	tbl := E11RestrictedScripting(true)
	for _, row := range tbl.Rows {
		name, verdict, outcome := row[0], row[1], row[2]
		switch name {
		case "well-behaved rule":
			if verdict != "accepted" || outcome != "completed" {
				t.Fatalf("well-behaved script mishandled: %v", row)
			}
		default:
			if !strings.HasPrefix(verdict, "REJECTED") {
				t.Fatalf("%s should be rejected in restricted mode: %v", name, row)
			}
			if outcome == "completed" && name != "heavy but finite loop" {
				t.Fatalf("%s should not complete in full mode: %v", name, row)
			}
		}
	}
}

// TestE5TiersHoldOnTheHub asserts E5's claim on every row: coarse x lags
// its authoritative value by less than the row's epsilon, and exact hp
// does not lag at all.
func TestE5TiersHoldOnTheHub(t *testing.T) {
	for _, row := range E5ConsistencyTiers(true).Rows {
		eps, err1 := strconv.ParseFloat(row[0], 64)
		divX, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if divX >= eps || row[4] != "0" {
			t.Fatalf("epsilon %v: coarse divergence %v, exact divergence %s; want < epsilon and 0", eps, divX, row[4])
		}
	}
}
