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

func TestLintFlagsNonCompilableBehavior(t *testing.T) {
	c := compilePack(t, lintPackHeader+`
  <script name="hoarder">
fn on_tick(self) {
  let seen = list();
  push(seen, self);
}
  </script>
  <script name="leaner">
fn on_tick(self) {
  add(self, "hp", 1);
}
  </script>
  <script name="helper">
fn pick(x) { return x; }
  </script>
</contentpack>`)
	if len(c.Warnings) != 1 {
		t.Fatalf("want 1 warning (hoarder only), got %d: %v", len(c.Warnings), c.Warnings)
	}
	w := c.Warnings[0]
	if w.Script != "hoarder" || w.Trigger != "" {
		t.Fatalf("warning attribution wrong: %+v", w)
	}
	if !strings.Contains(w.Msg, "interpreter") || !strings.Contains(w.Msg, `builtin "list"`) {
		t.Fatalf("warning should name the first non-compilable construct: %s", w.Msg)
	}
	if !strings.Contains(w.String(), `script "hoarder"`) {
		t.Fatalf("String() should carry the script name: %s", w.String())
	}
}

func TestTriggersCompileOnceWithThePack(t *testing.T) {
	// Both sides of a compilable rule carry their plan; a side outside
	// the compilable subset carries the reason instead and one advisory
	// warning naming it — the other side keeps its plan.
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
	if ct := byName["lean"]; ct.CondPlan == nil || ct.ActPlan == nil || ct.CondFallback+ct.ActFallback != "" {
		t.Fatalf("lean: plans %v/%v fallbacks %q/%q", ct.CondPlan != nil, ct.ActPlan != nil, ct.CondFallback, ct.ActFallback)
	}
	if ct := byName["always"]; ct.Cond != nil || ct.CondPlan != nil || ct.ActPlan == nil {
		t.Fatalf("always: cond %v cond plan %v act plan %v", ct.Cond != nil, ct.CondPlan != nil, ct.ActPlan != nil)
	}
	ct := byName["spinner"]
	if ct.CondPlan == nil || ct.ActPlan != nil || !strings.Contains(ct.ActFallback, "while") {
		t.Fatalf("spinner: cond plan %v act plan %v act fallback %q", ct.CondPlan != nil, ct.ActPlan != nil, ct.ActFallback)
	}
	if !strings.Contains(ct.CondPlan.Explain(), "cond(self, amount)") {
		t.Fatalf("cond plan explains the wrong entry:\n%s", ct.CondPlan.Explain())
	}
	if len(c.Warnings) != 1 {
		t.Fatalf("want 1 warning (spinner's <do>), got %d: %v", len(c.Warnings), c.Warnings)
	}
	w := c.Warnings[0]
	if w.Trigger != "spinner" || !strings.Contains(w.Msg, "<do>") || !strings.Contains(w.Msg, "while") {
		t.Fatalf("warning should name the rule, the element and the construct: %+v", w)
	}
}
