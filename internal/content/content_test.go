package content

import (
	"strings"
	"testing"

	"gamedb/internal/entity"
)

const demoPack = `
<contentpack name="demo">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="faction" kind="string" default="neutral"/>
    <column name="boss" kind="bool" default="false"/>
  </schema>
  <archetype name="orc" table="units">
    <set column="hp" value="50"/>
    <set column="faction" value="horde"/>
  </archetype>
  <archetype name="warboss" table="units">
    <set column="hp" value="5000"/>
    <set column="boss" value="true"/>
  </archetype>
  <script name="wander" restricted="true">
fn flee(id) { move_toward(id, 0.0, 0.0, 2.0); }
fn on_tick(self) {
  if get(self, "hp") &lt; 20 { flee(self); }
}
  </script>
  <script name="patrol">
fn on_tick(self) {
  let i = 0;
  while i &lt; 4 { move_toward(self, pos_x(self) + 1.0, pos_y(self), 1.0); i = i + 1; }
}
  </script>
  <trigger name="boss-death" event="death" priority="10" once="true">
    <when>amount &gt; 0</when>
    <do>emit("kill", self); add(self, "hp", amount);</do>
  </trigger>
  <trigger name="any-death" event="death">
    <do>emit("count", self);</do>
  </trigger>
  <uiframe name="healthbar" x="10" y="20" w="200" h="24" anchor="top"/>
  <spawn archetype="orc" count="10" x="50" y="50" spread="20"/>
</contentpack>`

func TestLoadAndCompileDemoPack(t *testing.T) {
	c, errs := LoadAndCompile(strings.NewReader(demoPack))
	if len(errs) > 0 {
		t.Fatalf("compile errors: %v", errs)
	}
	if c.Name != "demo" {
		t.Fatalf("name = %q", c.Name)
	}
	s := c.Schemas["units"]
	if s == nil || s.Len() != 5 {
		t.Fatalf("units schema = %+v", s)
	}
	hpIdx, _ := s.Col("hp")
	if s.ColAt(hpIdx).Default != entity.Int(100) {
		t.Fatal("hp default wrong")
	}
	orc := c.Archetypes["orc"]
	if orc == nil || orc.Values["hp"] != entity.Int(50) || orc.Values["faction"] != entity.Str("horde") {
		t.Fatalf("orc archetype = %+v", orc)
	}
	if c.Archetypes["warboss"].Values["boss"] != entity.Bool(true) {
		t.Fatal("warboss boss flag wrong")
	}
	if len(c.Scripts) != 2 {
		t.Fatalf("scripts = %d", len(c.Scripts))
	}
	if !c.Scripts["wander"].Restricted || c.Scripts["patrol"].Restricted {
		t.Fatal("restricted flags wrong")
	}
	if len(c.Triggers) != 2 {
		t.Fatalf("triggers = %d", len(c.Triggers))
	}
	bd := c.Triggers[0]
	if bd.Name != "boss-death" || !bd.Once || bd.Priority != 10 || bd.Cond == nil || bd.Act == nil {
		t.Fatalf("boss-death trigger = %+v", bd)
	}
	if c.Triggers[1].Cond != nil {
		t.Fatal("any-death should have nil cond")
	}
	if len(c.Frames) != 1 || c.Frames[0].W != 200 {
		t.Fatalf("frames = %+v", c.Frames)
	}
	if len(c.Spawns) != 1 || c.Spawns[0].Count != 10 {
		t.Fatalf("spawns = %+v", c.Spawns)
	}
}

func TestCompileErrorsAreAggregated(t *testing.T) {
	bad := `
<contentpack name="bad">
  <schema table="units">
    <column name="hp" kind="integer"/>
    <column name="x" kind="float" default="abc"/>
  </schema>
  <archetype name="orc" table="nope"/>
  <spawn archetype="ghost" count="-1"/>
  <uiframe x="1" y="1" w="-5" h="2"/>
</contentpack>`
	_, errs := LoadAndCompile(strings.NewReader(bad))
	if len(errs) < 5 {
		t.Fatalf("want ≥5 aggregated errors, got %d: %v", len(errs), errs)
	}
	joined := ""
	for _, e := range errs {
		joined += e.Error() + "\n"
	}
	for _, want := range []string{"unknown kind", "default", "unknown table", "unknown archetype", "negative"} {
		if !strings.Contains(joined, want) {
			t.Errorf("errors missing %q:\n%s", want, joined)
		}
	}
}

func TestRestrictedScriptRejected(t *testing.T) {
	src := `
<contentpack name="p">
  <script name="bad" restricted="true">
fn spin() { while true { } }
  </script>
</contentpack>`
	_, errs := LoadAndCompile(strings.NewReader(src))
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "restricted mode") {
		t.Fatalf("errs = %v", errs)
	}
	// Pack-level restricted applies to all scripts.
	src2 := `
<contentpack name="p" restricted="true">
  <script name="bad">
fn f(n) { return f(n); }
  </script>
</contentpack>`
	_, errs = LoadAndCompile(strings.NewReader(src2))
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "recursion") {
		t.Fatalf("errs = %v", errs)
	}
}

// uiModBomb is examples/ui-mod's recursion bomb.
const uiModBomb = `
fn deeper(n) { return deeper(n + 1); }
fn on_tick(self) { deeper(0); }`

// TestRecursionIsALoadErrorWithoutRestrictedMode: restricted mode
// rejects recursion anywhere; an unrestricted pack still cannot load a
// behavior that recurses, because it does not compile.
func TestRecursionIsALoadErrorWithoutRestrictedMode(t *testing.T) {
	_, errs := LoadAndCompile(strings.NewReader(`
<contentpack name="freezehud">
  <script name="bomb">` + uiModBomb + `
  </script>
</contentpack>`))
	want := `content: script "bomb": line 3: not compilable: call to "deeper", which recurses`
	if len(errs) != 1 || errs[0].Error() != want {
		t.Fatalf("errs = %v, want [%s]", errs, want)
	}
}

func TestTriggerCompileErrors(t *testing.T) {
	src := `
<contentpack name="p">
  <trigger name="t1" event="death">
    <when>1 +</when>
    <do>act();</do>
  </trigger>
  <trigger name="t2">
    <do>act();</do>
  </trigger>
  <trigger name="t3" event="death"></trigger>
</contentpack>`
	_, errs := LoadAndCompile(strings.NewReader(src))
	if len(errs) != 3 {
		t.Fatalf("want 3 errors, got %v", errs)
	}
}

func TestDuplicateDefinitions(t *testing.T) {
	src := `
<contentpack name="p">
  <schema table="a"><column name="x" kind="int"/></schema>
  <schema table="a"><column name="x" kind="int"/></schema>
  <archetype name="o" table="a"/>
  <archetype name="o" table="a"/>
  <script name="s">fn f() { return 1; }</script>
  <script name="s">fn f() { return 1; }</script>
</contentpack>`
	_, errs := LoadAndCompile(strings.NewReader(src))
	if len(errs) != 3 {
		t.Fatalf("want 3 duplicate errors, got %v", errs)
	}
}

func TestMalformedXML(t *testing.T) {
	if _, err := LoadString("<contentpack"); err == nil {
		t.Fatal("malformed XML should fail")
	}
	if _, errs := LoadAndCompile(strings.NewReader("not xml at all")); len(errs) == 0 {
		t.Fatal("garbage should fail")
	}
}

func TestMissingPackName(t *testing.T) {
	_, errs := LoadAndCompile(strings.NewReader(`<contentpack></contentpack>`))
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "name") {
		t.Fatalf("errs = %v", errs)
	}
}

func TestArchetypeBadColumnAndValue(t *testing.T) {
	src := `
<contentpack name="p">
  <schema table="u"><column name="hp" kind="int"/></schema>
  <archetype name="a" table="u"><set column="mana" value="1"/></archetype>
  <archetype name="b" table="u"><set column="hp" value="lots"/></archetype>
</contentpack>`
	c, errs := LoadAndCompile(strings.NewReader(src))
	if len(errs) != 2 {
		t.Fatalf("errs = %v", errs)
	}
	_ = c
}
