package entity

import (
	"errors"
	"fmt"
)

// ErrNoColumn reports a reference to a column that does not exist.
var ErrNoColumn = errors.New("entity: no such column")

// Column describes one typed attribute of a table. Default fills the
// column for rows inserted without an explicit value and for rows that
// predate the column (AddColumn backfill).
type Column struct {
	Name    string
	Kind    Kind
	Default Value
}

// Schema is an immutable ordered set of columns. Derive modified schemas
// with WithColumn, WithoutColumn and Renamed; the schema package layers
// versioned migrations on top of these primitives.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique and
// non-empty; defaults, when non-null, must match the column kind. A null
// default is replaced by the kind's zero value.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := s.appendCol(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known
// schemas in tests and examples.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

func zeroValue(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindString:
		return Str("")
	case KindBool:
		return Bool(false)
	default:
		return Null()
	}
}

func (s *Schema) appendCol(c Column) error {
	if c.Name == "" {
		return errors.New("entity: empty column name")
	}
	if c.Kind == KindInvalid {
		return fmt.Errorf("entity: column %q has invalid kind", c.Name)
	}
	if _, dup := s.byName[c.Name]; dup {
		return fmt.Errorf("entity: duplicate column %q", c.Name)
	}
	if c.Default.IsNull() {
		c.Default = zeroValue(c.Kind)
	} else if c.Default.Kind() != c.Kind {
		return fmt.Errorf("entity: column %q default kind %s != column kind %s",
			c.Name, c.Default.Kind(), c.Kind)
	}
	s.byName[c.Name] = len(s.cols)
	s.cols = append(s.cols, c)
	return nil
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Cols returns a copy of the column list.
func (s *Schema) Cols() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Col returns the index of the named column.
func (s *Schema) Col(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustCol returns the index of the named column and panics if absent.
func (s *Schema) MustCol(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("entity: no column %q", name))
	}
	return i
}

// ColAt returns the column descriptor at index i.
func (s *Schema) ColAt(i int) Column { return s.cols[i] }

// WithColumn returns a new schema with c appended.
func (s *Schema) WithColumn(c Column) (*Schema, error) {
	out, err := NewSchema(s.cols...)
	if err != nil {
		return nil, err
	}
	if err := out.appendCol(c); err != nil {
		return nil, err
	}
	return out, nil
}

// WithoutColumn returns a new schema with the named column removed.
func (s *Schema) WithoutColumn(name string) (*Schema, error) {
	idx, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	cols := make([]Column, 0, len(s.cols)-1)
	cols = append(cols, s.cols[:idx]...)
	cols = append(cols, s.cols[idx+1:]...)
	return NewSchema(cols...)
}

// Renamed returns a new schema with column old renamed to new.
func (s *Schema) Renamed(old, new string) (*Schema, error) {
	idx, ok := s.byName[old]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, old)
	}
	cols := s.Cols()
	cols[idx].Name = new
	return NewSchema(cols...)
}
