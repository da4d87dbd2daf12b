package script

import (
	"strconv"
	"strings"

	"gamedb/internal/entity"
)

// Kind enumerates GSL value kinds.
type Kind uint8

// GSL value kinds. Lists exist so game builtins can return entity sets
// (nearby, entities) for for-in iteration.
const (
	KNull Kind = iota
	KInt
	KFloat
	KStr
	KBool
	KList
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "string"
	case KBool:
		return "bool"
	case KList:
		return "list"
	default:
		return "?"
	}
}

// Value is a GSL runtime value.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
	list []Value
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an int value.
func Int(v int64) Value { return Value{kind: KInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KStr, s: v} }

// Bool returns a bool value.
func Bool(v bool) Value { return Value{kind: KBool, b: v} }

// List returns a list value; the slice is owned by the Value afterwards.
func List(vs ...Value) Value { return Value{kind: KList, list: vs} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KNull }

// AsInt returns the int payload if the value is an int.
func (v Value) AsInt() (int64, bool) {
	if v.kind == KInt {
		return v.i, true
	}
	return 0, false
}

// AsIntOr returns the int payload, or def when the value is not an int.
// Builtin implementations use it for optional numeric arguments.
func (v Value) AsIntOr(def int64) int64 {
	if v.kind == KInt {
		return v.i
	}
	return def
}

// AsFloat returns the value as float64, coercing ints.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KFloat:
		return v.f, true
	case KInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsStr returns the string payload if the value is a string.
func (v Value) AsStr() (string, bool) {
	if v.kind == KStr {
		return v.s, true
	}
	return "", false
}

// AsBool returns the bool payload if the value is a bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind == KBool {
		return v.b, true
	}
	return false, false
}

// AsList returns the list payload if the value is a list.
func (v Value) AsList() ([]Value, bool) {
	if v.kind == KList {
		return v.list, true
	}
	return nil, false
}

// String renders the value for display and log().
func (v Value) String() string {
	switch v.kind {
	case KNull:
		return "null"
	case KInt:
		return strconv.FormatInt(v.i, 10)
	case KFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KStr:
		return v.s
	case KBool:
		return strconv.FormatBool(v.b)
	case KList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range v.list {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "?"
	}
}

// Equal tests deep equality, with int/float compared numerically.
func Equal(a, b Value) bool {
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			return af == bf
		}
		return false
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KNull:
		return true
	case KStr:
		return a.s == b.s
	case KBool:
		return a.b == b.b
	case KList:
		if len(a.list) != len(b.list) {
			return false
		}
		for i := range a.list {
			if !Equal(a.list[i], b.list[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// FromEntity converts a store value into a script value.
func FromEntity(v entity.Value) Value {
	switch v.Kind() {
	case entity.KindInt:
		return Int(v.Int())
	case entity.KindFloat:
		return Float(v.Float())
	case entity.KindString:
		return Str(v.Str())
	case entity.KindBool:
		return Bool(v.Bool())
	default:
		return Null()
	}
}
