package content

import (
	"strings"
	"testing"
)

func compilePack(t *testing.T, src string) *Compiled {
	t.Helper()
	c, errs := LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		t.Fatalf("pack rejected: %v", errs)
	}
	return c
}

const lintPackHeader = `
<contentpack name="lint">
  <schema table="units">
    <column name="hp" kind="int"/>
    <column name="mana" kind="int"/>
  </schema>
`

func TestLintFlagsSetGetAccumulation(t *testing.T) {
	c := compilePack(t, lintPackHeader+`
  <trigger name="acc" event="hit">
    <do>set(self, "hp", get(self, "hp") + amount);</do>
  </trigger>
</contentpack>`)
	if len(c.Warnings) != 1 {
		t.Fatalf("want 1 warning, got %d: %v", len(c.Warnings), c.Warnings)
	}
	w := c.Warnings[0]
	if w.Trigger != "acc" {
		t.Fatalf("warning names trigger %q, want %q", w.Trigger, "acc")
	}
	if !strings.Contains(w.Msg, "add") || !strings.Contains(w.Msg, `"hp"`) {
		t.Fatalf("warning should point at add on the column: %s", w.Msg)
	}
	if !strings.Contains(w.String(), "acc") {
		t.Fatalf("String() should carry the trigger name: %s", w.String())
	}
}

func TestLintFlagsNestedAndConditionalOccurrences(t *testing.T) {
	c := compilePack(t, lintPackHeader+`
  <trigger name="deep" event="hit">
    <do>
      if amount > 0 {
        set(self, "hp", 1 + (get(self, "hp") * 2));
      }
      set(self, "mana", get(self, "mana") - amount);
    </do>
  </trigger>
</contentpack>`)
	if len(c.Warnings) != 2 {
		t.Fatalf("want 2 warnings (if-body and top level), got %d: %v", len(c.Warnings), c.Warnings)
	}
}

func TestLintIgnoresBenignPatterns(t *testing.T) {
	c := compilePack(t, lintPackHeader+`
  <trigger name="ok-add" event="hit">
    <do>add(self, "hp", amount);</do>
  </trigger>
  <trigger name="ok-cross-column" event="hit">
    <do>set(self, "hp", get(self, "mana") + 1);</do>
  </trigger>
  <trigger name="ok-cross-entity" event="hit">
    <do>set(self, "hp", get(amount, "hp") + 1);</do>
  </trigger>
  <trigger name="ok-plain-set" event="hit">
    <do>set(self, "hp", 100);</do>
  </trigger>
</contentpack>`)
	if len(c.Warnings) != 0 {
		t.Fatalf("benign patterns flagged: %v", c.Warnings)
	}
}

func TestLintDoesNotRejectThePack(t *testing.T) {
	// The shipped cascade scenario itself contains the pattern; it must
	// keep compiling (warnings are advisory, not errors).
	c := compilePack(t, lintPackHeader+`
  <trigger name="acc" event="hit">
    <do>set(self, "hp", get(self, "hp") + 1);</do>
  </trigger>
</contentpack>`)
	if len(c.Triggers) != 1 {
		t.Fatalf("trigger missing from compiled pack: %+v", c.Triggers)
	}
}

// TestLintFlagsNonCompilableBehavior: a behavior or trigger body the
// engine cannot compile is a load error naming the script or rule, the
// line and the construct — never a warning the pack loads past.
func TestLintFlagsNonCompilableBehavior(t *testing.T) {
	_, errs := LoadAndCompile(strings.NewReader(lintPackHeader + `
  <script name="hoarder">
fn on_tick(self) {
  let seen = 0;
  let l = list();
}
  </script>
  <script name="leaner">
fn on_tick(self) {
  add(self, "hp", 1);
}
  </script>
  <script name="helper">
fn pick(x) { return list(x); }
  </script>
  <trigger name="caller" event="hit">
    <when>amount &gt; 0</when>
    <do>frob(self);</do>
  </trigger>
</contentpack>`))
	if len(errs) != 2 {
		t.Fatalf("want 2 errors (hoarder and caller's <do>), got %d: %v", len(errs), errs)
	}
	for i, want := range []string{
		`content: script "hoarder": line 4: not compilable: builtin "list"`,
		`content: trigger "caller" <do>: line 1: not compilable: unknown function "frob"`,
	} {
		if !strings.HasPrefix(errs[i].Error(), want) {
			t.Errorf("error %d = %q, want it to start %q", i, errs[i], want)
		}
	}
}

func TestTriggersCompileOnceWithThePack(t *testing.T) {
	// Every side of every rule carries its plan — a <do> with a while
	// loop included — and an unconditional rule has no <when> plan.
	c := compilePack(t, lintPackHeader+`
  <trigger name="lean" event="hit">
    <when>amount &gt; 0</when>
    <do>add(self, "hp", amount);</do>
  </trigger>
  <trigger name="always" event="hit">
    <do>add(self, "mana", 1);</do>
  </trigger>
  <trigger name="spinner" event="hit">
    <when>amount &gt; 0</when>
    <do>let i = 0; while i &lt; amount { i = i + 1; }</do>
  </trigger>
</contentpack>`)
	byName := map[string]*CompiledTrigger{}
	for _, ct := range c.Triggers {
		byName[ct.Name] = ct
	}
	if ct := byName["lean"]; ct.CondPlan == nil || ct.ActPlan == nil {
		t.Fatalf("lean: plans %v/%v", ct.CondPlan != nil, ct.ActPlan != nil)
	}
	if ct := byName["always"]; ct.Cond != nil || ct.CondPlan != nil || ct.ActPlan == nil {
		t.Fatalf("always: cond %v cond plan %v act plan %v", ct.Cond != nil, ct.CondPlan != nil, ct.ActPlan != nil)
	}
	ct := byName["spinner"]
	if ct.CondPlan == nil || ct.ActPlan == nil || !strings.Contains(ct.ActPlan.Explain(), "while") {
		t.Fatalf("spinner: cond plan %v act plan %v", ct.CondPlan != nil, ct.ActPlan != nil)
	}
	if !strings.Contains(ct.CondPlan.Explain(), "cond(self, amount)") {
		t.Fatalf("cond plan explains the wrong entry:\n%s", ct.CondPlan.Explain())
	}
	if len(c.Warnings) != 0 {
		t.Fatalf("want no warnings, got %v", c.Warnings)
	}
}
