// Package content implements the data-driven design pipeline the paper
// opens with: game content — schemas, entity archetypes, behavior
// scripts, event triggers, even UI layout (World of Warcraft's XML UI
// specification, ref [14]) — lives in XML content packs authored by
// designers and is loaded, validated and compiled by the engine, never
// hard-coded.
//
// Load parses the XML; Compile validates everything a designer could get
// wrong (unknown kinds, type mismatches, scripts that fail restricted
// mode, GSL the engine cannot compile) and reports every problem at
// once, the way production content tools do.
package content

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/script"
)

// Pack is the raw parsed form of a content pack XML document.
type Pack struct {
	XMLName    xml.Name       `xml:"contentpack"`
	Name       string         `xml:"name,attr"`
	Restricted bool           `xml:"restricted,attr"`
	Tables     []TableDef     `xml:"schema"`
	Archetypes []ArchetypeDef `xml:"archetype"`
	Scripts    []ScriptDef    `xml:"script"`
	Triggers   []TriggerDef   `xml:"trigger"`
	Frames     []UIFrame      `xml:"uiframe"`
	Spawns     []SpawnDef     `xml:"spawn"`
}

// TableDef declares a component table.
type TableDef struct {
	Table   string      `xml:"table,attr"`
	Columns []ColumnDef `xml:"column"`
}

// ColumnDef declares one column.
type ColumnDef struct {
	Name    string `xml:"name,attr"`
	Kind    string `xml:"kind,attr"`
	Default string `xml:"default,attr"`
}

// ArchetypeDef is a reusable entity template. Script optionally names a
// behavior script whose on_tick function runs for entities spawned from
// this archetype.
type ArchetypeDef struct {
	Name   string   `xml:"name,attr"`
	Table  string   `xml:"table,attr"`
	Script string   `xml:"script,attr"`
	Sets   []SetDef `xml:"set"`
}

// SetDef is one column assignment in an archetype.
type SetDef struct {
	Column string `xml:"column,attr"`
	Value  string `xml:"value,attr"`
}

// ScriptDef is an embedded GSL behavior script. A script marked
// restricted (or in a restricted pack) must pass script.CheckRestricted.
type ScriptDef struct {
	Name       string `xml:"name,attr"`
	Restricted bool   `xml:"restricted,attr"`
	Source     string `xml:",chardata"`
}

// TriggerDef is a declarative event rule. When is a GSL expression over
// the variable `self` (the subject entity id) and `amount` (the event
// payload); Do is a GSL statement list over the same variables.
type TriggerDef struct {
	Name     string `xml:"name,attr"`
	Event    string `xml:"event,attr"`
	Priority int    `xml:"priority,attr"`
	Once     bool   `xml:"once,attr"`
	When     string `xml:"when"`
	Do       string `xml:"do"`
}

// UIFrame is a WoW-style UI layout element.
type UIFrame struct {
	Name   string  `xml:"name,attr"`
	X      float64 `xml:"x,attr"`
	Y      float64 `xml:"y,attr"`
	W      float64 `xml:"w,attr"`
	H      float64 `xml:"h,attr"`
	Anchor string  `xml:"anchor,attr"`
}

// SpawnDef instantiates entities from an archetype at load time.
type SpawnDef struct {
	Archetype string  `xml:"archetype,attr"`
	Count     int     `xml:"count,attr"`
	X         float64 `xml:"x,attr"`
	Y         float64 `xml:"y,attr"`
	Spread    float64 `xml:"spread,attr"`
}

// Load parses a content pack document without validating it.
func Load(r io.Reader) (*Pack, error) {
	var p Pack
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("content: parse: %w", err)
	}
	return &p, nil
}

// Archetype is a compiled entity template.
type Archetype struct {
	Name   string
	Table  string
	Script string
	Values map[string]entity.Value
}

// CompiledScript is a parsed, checked behavior script. Plan is its
// on_tick lowered onto a gslplan plan, compiled once here and shared by
// every world (every shard) that loads the pack — how the script runs;
// nil means the script has no on_tick and never runs as a behavior.
type CompiledScript struct {
	Name       string
	Restricted bool
	Prog       *script.Program
	Plan       *gslplan.Program
}

// CompiledTrigger is a trigger with parsed condition/action programs.
// Cond is nil when no <when> was given. Both programs expose a single
// function, CondFn and ActFn respectively, taking (self, amount).
//
// CondPlan and ActPlan are the same two functions lowered onto gslplan
// plans, compiled once here so that every world (every shard) loading
// the pack shares them and only binds per worker. CondPlan is nil
// exactly when Cond is.
type CompiledTrigger struct {
	Name     string
	Event    string
	Priority int
	Once     bool
	Cond     *script.Program
	Act      *script.Program

	CondPlan, ActPlan *gslplan.Program
}

// Entry points of a trigger's two programs, and how many arguments the
// world passes them: (self, amount).
const (
	CondFn      = "cond"
	ActFn       = "act"
	TriggerArgs = 2
)

// Compiled is a fully validated content pack ready for the world to
// instantiate.
type Compiled struct {
	Name       string
	Schemas    map[string]*entity.Schema
	Archetypes map[string]*Archetype
	Scripts    map[string]*CompiledScript
	Triggers   []*CompiledTrigger
	Frames     []UIFrame
	Spawns     []SpawnDef
	// Warnings are non-fatal lint findings (see lint.go): the pack
	// loads, but something in it is a known hazard — set(x, get(x)…)
	// accumulation in trigger bodies (last-write-wins under the
	// effect-aware trigger drain).
	Warnings []Warning
}

func parseValue(kind entity.Kind, raw string) (entity.Value, error) {
	switch kind {
	case entity.KindInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return entity.Null(), fmt.Errorf("bad int %q", raw)
		}
		return entity.Int(n), nil
	case entity.KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return entity.Null(), fmt.Errorf("bad float %q", raw)
		}
		return entity.Float(f), nil
	case entity.KindBool:
		switch raw {
		case "true":
			return entity.Bool(true), nil
		case "false":
			return entity.Bool(false), nil
		default:
			return entity.Null(), fmt.Errorf("bad bool %q", raw)
		}
	case entity.KindString:
		return entity.Str(raw), nil
	default:
		return entity.Null(), fmt.Errorf("bad kind")
	}
}

// Compile validates the pack and returns the compiled form. All problems
// are returned together so a designer fixes one load's worth of errors,
// not one error per load.
func Compile(p *Pack) (*Compiled, []error) {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	c := &Compiled{
		Name:       p.Name,
		Schemas:    make(map[string]*entity.Schema),
		Archetypes: make(map[string]*Archetype),
		Scripts:    make(map[string]*CompiledScript),
		Frames:     p.Frames,
		Spawns:     p.Spawns,
	}
	if p.Name == "" {
		fail("content: pack has no name attribute")
	}

	for _, td := range p.Tables {
		if td.Table == "" {
			fail("content: schema element missing table attribute")
			continue
		}
		if _, dup := c.Schemas[td.Table]; dup {
			fail("content: duplicate schema for table %q", td.Table)
			continue
		}
		var cols []entity.Column
		bad := false
		for _, cd := range td.Columns {
			kind, ok := entity.KindByName(cd.Kind)
			if !ok {
				fail("content: table %q column %q: unknown kind %q", td.Table, cd.Name, cd.Kind)
				bad = true
				continue
			}
			col := entity.Column{Name: cd.Name, Kind: kind}
			if cd.Default != "" {
				v, err := parseValue(kind, cd.Default)
				if err != nil {
					fail("content: table %q column %q default: %v", td.Table, cd.Name, err)
					bad = true
					continue
				}
				col.Default = v
			}
			cols = append(cols, col)
		}
		if bad {
			continue
		}
		s, err := entity.NewSchema(cols...)
		if err != nil {
			fail("content: table %q: %v", td.Table, err)
			continue
		}
		c.Schemas[td.Table] = s
	}

	for _, ad := range p.Archetypes {
		s, ok := c.Schemas[ad.Table]
		if !ok {
			fail("content: archetype %q references unknown table %q", ad.Name, ad.Table)
			continue
		}
		if _, dup := c.Archetypes[ad.Name]; dup {
			fail("content: duplicate archetype %q", ad.Name)
			continue
		}
		arch := &Archetype{Name: ad.Name, Table: ad.Table, Script: ad.Script, Values: make(map[string]entity.Value)}
		ok = true
		for _, set := range ad.Sets {
			ci, has := s.Col(set.Column)
			if !has {
				fail("content: archetype %q sets unknown column %q", ad.Name, set.Column)
				ok = false
				continue
			}
			v, err := parseValue(s.ColAt(ci).Kind, set.Value)
			if err != nil {
				fail("content: archetype %q column %q: %v", ad.Name, set.Column, err)
				ok = false
				continue
			}
			arch.Values[set.Column] = v
		}
		if ok {
			c.Archetypes[ad.Name] = arch
		}
	}

	for _, sd := range p.Scripts {
		if sd.Name == "" {
			fail("content: script missing name attribute")
			continue
		}
		if _, dup := c.Scripts[sd.Name]; dup {
			fail("content: duplicate script %q", sd.Name)
			continue
		}
		prog, err := script.Parse(sd.Source)
		if err != nil {
			fail("content: script %q: %v", sd.Name, err)
			continue
		}
		restricted := sd.Restricted || p.Restricted
		if restricted {
			if vs := script.CheckRestricted(prog); len(vs) > 0 {
				for _, v := range vs {
					fail("content: script %q: restricted mode: %s", sd.Name, v)
				}
				continue
			}
		}
		cs := &CompiledScript{Name: sd.Name, Restricted: restricted, Prog: prog}
		if prog.Fns[gslplan.EntryFn] != nil {
			if cs.Plan, err = gslplan.Compile(sd.Name, prog, gslplan.EntryFn, 1); err != nil {
				fail("content: script %q: %s", sd.Name, planError(err))
			}
		}
		c.Scripts[sd.Name] = cs
	}

	for _, td := range p.Triggers {
		if td.Event == "" {
			fail("content: trigger %q missing event attribute", td.Name)
			continue
		}
		if strings.TrimSpace(td.Do) == "" {
			fail("content: trigger %q has no <do> body", td.Name)
			continue
		}
		ct := &CompiledTrigger{
			Name: td.Name, Event: td.Event, Priority: td.Priority, Once: td.Once,
		}
		okTrig := true
		if strings.TrimSpace(td.When) != "" {
			src := fmt.Sprintf("fn %s(self, amount) { return %s; }", CondFn, strings.TrimSpace(td.When))
			prog, err := script.Parse(src)
			if err != nil {
				fail("content: trigger %q <when>: %v", td.Name, err)
				okTrig = false
			} else {
				ct.Cond = prog
			}
		}
		src := fmt.Sprintf("fn %s(self, amount) { %s }", ActFn, td.Do)
		prog, err := script.Parse(src)
		if err != nil {
			fail("content: trigger %q <do>: %v", td.Name, err)
			okTrig = false
		} else {
			ct.Act = prog
		}
		if okTrig && ct.Cond != nil {
			if ct.CondPlan, err = gslplan.Compile(ct.Name, ct.Cond, CondFn, TriggerArgs); err != nil {
				fail("content: trigger %q <when>: %s", td.Name, planError(err))
				okTrig = false
			}
		}
		if okTrig {
			if ct.ActPlan, err = gslplan.Compile(ct.Name, ct.Act, ActFn, TriggerArgs); err != nil {
				fail("content: trigger %q <do>: %s", td.Name, planError(err))
				okTrig = false
			}
		}
		if okTrig {
			c.Triggers = append(c.Triggers, ct)
			c.Warnings = append(c.Warnings, lintTrigger(ct)...)
		}
	}

	for _, a := range c.Archetypes {
		if a.Script != "" {
			if _, ok := c.Scripts[a.Script]; !ok {
				fail("content: archetype %q references unknown script %q", a.Name, a.Script)
			}
		}
	}

	for _, sp := range p.Spawns {
		if _, ok := c.Archetypes[sp.Archetype]; !ok {
			fail("content: spawn references unknown archetype %q", sp.Archetype)
		}
		if sp.Count < 0 {
			fail("content: spawn of %q has negative count %d", sp.Archetype, sp.Count)
		}
	}

	for _, f := range p.Frames {
		if f.Name == "" {
			fail("content: uiframe missing name attribute")
		}
		if f.W < 0 || f.H < 0 {
			fail("content: uiframe %q has negative size", f.Name)
		}
	}

	if len(errs) > 0 {
		return nil, errs
	}
	return c, nil
}

// LoadAndCompile parses and compiles in one call.
func LoadAndCompile(r io.Reader) (*Compiled, []error) {
	p, err := Load(r)
	if err != nil {
		return nil, []error{err}
	}
	return Compile(p)
}

// planError words a gslplan.Compile failure as a load error: the line
// and the first construct that does not lower.
func planError(err error) string {
	line, construct := gslplan.Reason(err)
	return fmt.Sprintf("line %d: not compilable: %s", line, construct)
}

// ExplainPlans renders how the rule executes: the Explain text of its
// <when> plan, when it has one, followed by its <do> plan's.
func (ct *CompiledTrigger) ExplainPlans() string {
	if ct.CondPlan == nil {
		return ct.ActPlan.Explain()
	}
	return ct.CondPlan.Explain() + ct.ActPlan.Explain()
}
