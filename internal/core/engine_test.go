package core

import (
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/persist"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

const packXML = `
<contentpack name="shard">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="npc" table="units"/>
  <spawn archetype="npc" count="5" x="50" y="50" spread="10"/>
</contentpack>`

// newLoaded builds an engine from opts and loads packXML into it.
func newLoaded(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.LoadPackXML(strings.NewReader(packXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineLifecycle(t *testing.T) {
	e := newLoaded(t, Options{Seed: 1})
	if e.Entities() != 5 {
		t.Fatalf("entities = %d", e.Entities())
	}
	st, err := e.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 1 {
		t.Fatalf("tick = %d", st.Tick)
	}
	// No persistence configured: Checkpoint and recovery must refuse.
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint without persistence should fail")
	}
	if _, err := e.CrashAndRecover(); err == nil {
		t.Fatal("recover without persistence should fail")
	}
}

func TestLoadPackXMLAggregatesErrors(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.LoadPackXML(strings.NewReader(`<contentpack name="x">
	  <schema table="t"><column name="a" kind="wat"/></schema>
	  <archetype name="o" table="zzz"/>
	</contentpack>`))
	if err == nil {
		t.Fatal("bad pack should fail")
	}
	if !strings.Contains(err.Error(), "unknown kind") || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("error should list all problems:\n%v", err)
	}
}

func TestPeriodicCheckpointingAndRecovery(t *testing.T) {
	e := newLoaded(t, Options{Seed: 1, Checkpoint: persist.Periodic{EveryTicks: 10}})
	var id entity.ID = 1
	for i := 0; i < 25; i++ {
		if _, err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (ticks 10, 20)", e.Checkpoints)
	}
	// Mutate after the last checkpoint, then crash.
	if err := e.Set(id, "hp", entity.Int(1)); err != nil {
		t.Fatal(err)
	}
	lost, err := e.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 5 {
		t.Fatalf("lost ticks = %d, want 5", lost)
	}
	v, err := e.ShardWorld(0).Get(id, "hp")
	if err != nil {
		t.Fatal(err)
	}
	if v != entity.Int(100) {
		t.Fatalf("hp = %v, rollback failed", v)
	}
	if e.Runtime().Tick() != 20 {
		t.Fatalf("tick after recovery = %d", e.Runtime().Tick())
	}
}

func TestEventKeyedCheckpointOnImportant(t *testing.T) {
	e := newLoaded(t, Options{Seed: 1, Checkpoint: persist.EventKeyed{MaxTicks: 1000}})
	for i := 0; i < 5; i++ {
		if _, err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Checkpoints != 0 {
		t.Fatalf("checkpoints before important event = %d", e.Checkpoints)
	}
	if err := e.NoteImportant(); err != nil {
		t.Fatal(err)
	}
	if e.Checkpoints != 1 {
		t.Fatalf("checkpoints after important event = %d", e.Checkpoints)
	}
	lost, err := e.CrashAndRecover()
	if err != nil || lost != 0 {
		t.Fatalf("lost = %d, %v; important progress must survive", lost, err)
	}
}

// replicaFields replicates hp exactly and x coarsely.
func replicaFields() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "hp", Class: replica.Exact},
		{Name: "x", Class: replica.Coarse, Epsilon: 5, MaxAge: 100},
	}
}

// updateSize and removeSize are the encoded sizes of one field update
// and one removal, the messages the tests below expect a client to get.
func updateSize(id entity.ID, fi int32, v float64) int64 {
	var e wire.Enc
	replica.AppendUpdateMsg(&e, replica.ID(id), fi, v)
	return int64(e.Len())
}

func removeSize(id entity.ID) int64 {
	var e wire.Enc
	replica.AppendRemoveMsg(&e, replica.ID(id))
	return int64(e.Len())
}

func TestReplicationIntegration(t *testing.T) {
	e := newLoaded(t, Options{Seed: 1, ReplicaFields: replicaFields()})
	c := e.Hub().AddClient(1, spatial.Vec2{X: 50, Y: 50}, 200, 0)
	if _, err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.Snapshots != 5 {
		t.Fatalf("client snapshots = %d, want 5", c.Snapshots)
	}
	// The pack's units stand still: an exact field change is the next
	// tick's one message.
	msgs, bytes := c.Msgs, c.Bytes
	if err := e.Set(1, "hp", entity.Int(55)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.Msgs != msgs+1 || c.Bytes != bytes+updateSize(1, 0, 55) {
		t.Fatalf("exact change shipped %d msgs, %d bytes; want one hp update", c.Msgs-msgs, c.Bytes-bytes)
	}
	if d, _ := e.Hub().Divergence("hp"); d != 0 {
		t.Fatalf("exact divergence = %v", d)
	}
	// Despawn propagates as one removal.
	msgs, bytes = c.Msgs, c.Bytes
	if err := e.ShardWorld(0).Despawn(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.Msgs != msgs+1 || c.Bytes != bytes+removeSize(1) || e.Hub().Entities() != 4 {
		t.Fatalf("despawn shipped %d msgs, %d bytes, hub holds %d entities; want one removal and 4",
			c.Msgs-msgs, c.Bytes-bytes, e.Hub().Entities())
	}
}

// TestReplicaRollbackAfterCrash: a restore records no despawns, yet an
// entity it rolled back must leave the hub, and the rolled-back values of
// the survivors must ship — on one shard and across two.
func TestReplicaRollbackAfterCrash(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			e := newLoaded(t, Options{
				Seed: 1, Shards: shards, World: spatial.NewRect(0, 0, 100, 100),
				Checkpoint: persist.EventKeyed{MaxTicks: 1000}, ReplicaFields: replicaFields(),
			})
			c := e.Hub().AddClient(1, spatial.Vec2{X: 50, Y: 50}, 200, 0)
			if _, err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			id, err := e.Spawn("npc", spatial.Vec2{X: 45, Y: 55})
			if err != nil {
				t.Fatal(err)
			}
			for _, survivor := range []entity.ID{1, 2} {
				if err := e.Set(survivor, "hp", entity.Int(7)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			if e.Hub().Entities() != 6 {
				t.Fatalf("hub holds %d entities before the crash, want 6", e.Hub().Entities())
			}
			if lost, err := e.CrashAndRecover(); err != nil || lost != 1 {
				t.Fatalf("lost = %d, %v; want 1", lost, err)
			}
			msgs, bytes := c.Msgs, c.Bytes
			if _, err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			want := removeSize(id) + updateSize(1, 0, 100) + updateSize(2, 0, 100)
			if c.Msgs != msgs+3 || c.Bytes != bytes+want {
				t.Fatalf("first tick after recovery shipped %d msgs, %d bytes; want %d's removal and hp 100 for 1 and 2 (%d bytes)",
					c.Msgs-msgs, c.Bytes-bytes, id, want)
			}
			if e.Hub().Entities() != 5 || e.Entities() != 5 {
				t.Fatalf("hub holds %d entities, the world %d; want 5", e.Hub().Entities(), e.Entities())
			}
		})
	}
}

func TestReplicaValidationFailure(t *testing.T) {
	if _, err := New(Options{ReplicaFields: []replica.FieldSpec{{Name: ""}}}); err == nil {
		t.Fatal("bad replica spec should fail")
	}
	if _, err := New(Options{ReplicaFields: []replica.FieldSpec{{Name: "hp"}, {Name: "hp"}}}); err == nil {
		t.Fatal("duplicate replica field should fail")
	}
}
