package workload

import (
	"math/rand"
	"testing"

	"gamedb/internal/bubble"
	"gamedb/internal/spatial"
	"gamedb/internal/txn"
)

func TestMovementModelsStayInBounds(t *testing.T) {
	world := spatial.NewRect(0, 0, 500, 500)
	rng := rand.New(rand.NewSource(1))
	models := map[string]*Movement{
		"waypoint": NewRandomWaypoint(rng, 100, world, 10),
		"hotspot":  NewHotspot(rng, 100, world, 10, 3),
		"flock":    NewFlocking(rng, 100, world, 10),
	}
	for name, m := range models {
		for step := 0; step < 200; step++ {
			m.Step(0.1)
		}
		for _, mv := range m.Movers {
			if !world.Contains(mv.Pos) {
				t.Fatalf("%s: mover %d escaped to %v", name, mv.ID, mv.Pos)
			}
		}
		pts := m.Points()
		if len(pts) != 100 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		be := m.BubbleEntities()
		if len(be) != 100 || be[0].ID != 1 {
			t.Fatalf("%s: bubble entities wrong", name)
		}
	}
}

func TestMoversActuallyMove(t *testing.T) {
	world := spatial.NewRect(0, 0, 500, 500)
	rng := rand.New(rand.NewSource(2))
	m := NewRandomWaypoint(rng, 50, world, 10)
	before := m.Points()
	for i := 0; i < 50; i++ {
		m.Step(0.1)
	}
	moved := 0
	for i, p := range m.Points() {
		if p.Pos.Dist(before[i].Pos) > 1 {
			moved++
		}
	}
	if moved < 40 {
		t.Fatalf("only %d/50 movers moved", moved)
	}
}

func TestHotspotSkewsDensity(t *testing.T) {
	world := spatial.NewRect(0, 0, 1000, 1000)
	rngU := rand.New(rand.NewSource(3))
	rngH := rand.New(rand.NewSource(3))
	uniform := NewRandomWaypoint(rngU, 400, world, 20)
	hotspot := NewHotspot(rngH, 400, world, 20, 3)
	for i := 0; i < 600; i++ {
		uniform.Step(0.1)
		hotspot.Step(0.1)
	}
	// Measure clustering via bubble counts: hotspot crowds should
	// produce fewer, larger bubbles than uniform.
	cfg := bubble.Config{Horizon: 0.5, InteractRange: 15}
	bu := bubble.Compute(uniform.BubbleEntities(), cfg)
	bh := bubble.Compute(hotspot.BubbleEntities(), cfg)
	if bh.MaxSize() <= bu.MaxSize() {
		t.Fatalf("hotspot max bubble %d should exceed uniform %d", bh.MaxSize(), bu.MaxSize())
	}
}

func TestLocalTxnsAreLocal(t *testing.T) {
	world := spatial.NewRect(0, 0, 300, 300)
	rng := rand.New(rand.NewSource(4))
	m := NewHotspot(rng, 150, world, 10, 2)
	txns := LocalTxns(m, 4, 10)
	if len(txns) != 150 {
		t.Fatalf("txns = %d", len(txns))
	}
	for i, tx := range txns {
		if len(tx.Writes) != 1 || tx.Writes[0] != txn.Key(i) {
			t.Fatalf("txn %d writes = %v", i, tx.Writes)
		}
		if len(tx.Reads) == 0 || len(tx.Reads) > 4 {
			t.Fatalf("txn %d reads = %v", i, tx.Reads)
		}
	}
}

func TestGroupTxnsByBubbleIsSound(t *testing.T) {
	world := spatial.NewRect(0, 0, 2000, 2000)
	rng := rand.New(rand.NewSource(5))
	m := NewHotspot(rng, 300, world, 10, 5)
	cfg := bubble.Config{Horizon: 1, InteractRange: 40}
	p := bubble.Compute(m.BubbleEntities(), cfg)
	txns := LocalTxns(m, 3, 10)
	groups := GroupTxnsByBubble(p, txns)
	if len(groups) != p.NumBubbles() {
		t.Fatalf("groups = %d, bubbles = %d", len(groups), p.NumBubbles())
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(txns) {
		t.Fatalf("grouped %d of %d txns", total, len(txns))
	}
	// Disjointness check: run partitioned and serial, compare final sums.
	nKeys := len(m.Movers)
	s1 := txn.NewStore(nKeys)
	txn.Serial{}.Run(s1, txns, 1)
	s2 := txn.NewStore(nKeys)
	txn.Partitioned{Groups: groups}.Run(s2, nil, 8)
	if s1.Sum() != s2.Sum() {
		t.Fatalf("partitioned sum %d != serial %d", s2.Sum(), s1.Sum())
	}
}

// TestGroupTxnsByBubbleGroupsAreKeyDisjoint: on E4's world shape, where
// nearest neighbors often lie beyond the interaction range and so in
// another bubble, no key written by one group's txns is read or written
// by another group's.
func TestGroupTxnsByBubbleGroupsAreKeyDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	m := NewHotspot(rng, 600, spatial.NewRect(0, 0, 400, 400), 20, 6)
	for i := 0; i < 50; i++ {
		m.Step(0.1)
	}
	p := bubble.Compute(m.BubbleEntities(), bubble.Config{Horizon: 0.5, InteractRange: 15})
	txns := LocalTxns(m, 4, 10)
	crossing := 0
	for i, tx := range txns {
		for _, k := range tx.Reads {
			if !p.SameBubble(spatial.ID(i+1), spatial.ID(k+1)) {
				crossing++
			}
		}
	}
	if crossing == 0 {
		t.Fatal("no txn reads across bubbles: the world no longer exercises the merge")
	}
	groups := GroupTxnsByBubble(p, txns)
	if len(groups) != p.NumBubbles() {
		t.Fatalf("groups = %d, bubbles = %d", len(groups), p.NumBubbles())
	}
	writer := map[txn.Key]int{} // written key → its group
	total := 0
	for g, txs := range groups {
		total += len(txs)
		for _, tx := range txs {
			for _, k := range tx.Writes {
				if h, ok := writer[k]; ok && h != g {
					t.Fatalf("key %d written by groups %d and %d", k, h, g)
				}
				writer[k] = g
			}
		}
	}
	if total != len(txns) {
		t.Fatalf("grouped %d of %d txns", total, len(txns))
	}
	for g, txs := range groups {
		for _, tx := range txs {
			for _, k := range tx.Reads {
				if h, ok := writer[k]; ok && h != g {
					t.Fatalf("key %d written by group %d and read by group %d", k, h, g)
				}
			}
		}
	}
}

func TestRaidRunsToBossKill(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	raid := NewRaid(rng, 10, 200_000)
	events := raid.RunToEnd(100_000)
	if !raid.Finished() {
		t.Fatal("raid did not finish")
	}
	var kills, loots, damage int
	important := 0
	for _, ev := range events {
		switch ev.Kind {
		case RaidBossKill:
			kills++
		case RaidLootDrop:
			loots++
		case RaidDamage:
			damage++
		}
		if ev.Important {
			important++
		}
	}
	if kills != 1 {
		t.Fatalf("boss kills = %d", kills)
	}
	if loots < 1 {
		t.Fatal("no loot")
	}
	if damage < 1000 {
		t.Fatalf("damage events = %d", damage)
	}
	if important < 2 {
		t.Fatalf("important events = %d", important)
	}
	// Tank should hold aggro for the vast majority of the fight.
	tgt, ok := raid.Boss.Target(1.1)
	if !ok {
		t.Fatal("boss has no target")
	}
	if tgt != 1 {
		t.Logf("final target %d (tank may have been out-threatened late)", tgt)
	}
	if raid.Boss.Switches > 20 {
		t.Fatalf("threat target switched %d times; aggro should be stable", raid.Boss.Switches)
	}
	// Step after finish is a no-op.
	if evs := raid.Step(); evs != nil {
		t.Fatal("step after finish should return nil")
	}
}

func TestRaidEventKindStrings(t *testing.T) {
	kinds := []RaidEventKind{RaidDamage, RaidHeal, RaidTaunt, RaidPlayerDeath, RaidLootDrop, RaidBossKill}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
}

func TestAlivePointsJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	raid := NewRaid(rng, 5, 1000)
	pts := raid.AlivePoints(rng, 0)
	if len(pts) != 7 { // tank + healer + 5 dps
		t.Fatalf("alive = %d", len(pts))
	}
	jittered := raid.AlivePoints(rng, 1.0)
	diff := 0
	for i := range pts {
		if pts[i].Pos != jittered[i].Pos {
			diff++
		}
	}
	if diff < 5 {
		t.Fatalf("jitter changed only %d positions", diff)
	}
}
