// Package entity implements the in-memory game-state store: typed
// component tables keyed by entity id, change notification, and the DDL
// operations (add/drop/rename column) that the schema-evolution
// subsystem builds on.
//
// The paper's "in-memory database layer that processes all actions"
// (Engineering Challenges) is exactly this package; every other subsystem
// (queries, scripts, replication, checkpointing) reads and writes game
// state through it.
//
// Tables are not synchronized internally: the world server serializes
// access per causality bubble, and the txn package layers concurrency
// control on top. This mirrors real engines, where the simulation loop
// owns the state.
package entity

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types a column may hold.
type Kind uint8

// The supported column kinds. KindInvalid is the zero Kind and doubles as
// "null" for open range bounds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindByName maps a kind name (as used in content packs) to a Kind.
func KindByName(name string) (Kind, bool) {
	switch name {
	case "int":
		return KindInt, true
	case "float":
		return KindFloat, true
	case "string":
		return KindString, true
	case "bool":
		return KindBool, true
	default:
		return KindInvalid, false
	}
}

// Value is a dynamically typed cell value. The zero Value is the null
// value.
//
// Value is 32 bytes: every scalar payload shares one word, n, which holds
// an int's bits, a float's IEEE-754 bits or 0/1 for a bool. Columns, lanes,
// effect records and barrier rows all copy Values, so the width is a
// hot-path property (TestHotRecordSizes pins it).
//
// Compare Values with Equal, not ==. Equal compares floats as floats
// (-0 equals +0, NaN equals nothing); == compares the payload's bits and
// gets both of those wrong. The query hash join and group-by key on Key,
// which keeps Equal's semantics.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value. Strings may hold arbitrary bytes, which the
// blob storage mode exploits.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Null returns the null value (kind KindInvalid).
func Null() Value { return Value{} }

// ival, fval and bval read n as an int's, a float's or a bool's payload.
func (v Value) ival() int64   { return int64(v.n) }
func (v Value) fval() float64 { return math.Float64frombits(v.n) }
func (v Value) bval() bool    { return v.n != 0 }

// Equal reports whether v and w are the same value: kinds equal, floats
// compared as floats (-0 equals +0, and NaN equals nothing, itself
// included), every other kind by payload.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	if v.kind == KindFloat {
		return v.fval() == w.fval()
	}
	return v.n == w.n && v.s == w.s
}

// ValueKey is a Value's map-key form: two keys are == exactly when their
// Values are Equal, because a float keeps its payload in a float64 field.
// A map keyed on it finds a -0 key under +0 and never finds a NaN.
type ValueKey struct {
	kind Kind
	n    uint64
	f    float64
	s    string
}

// Key returns v's map-key form.
func (v Value) Key() ValueKey {
	if v.kind == KindFloat {
		return ValueKey{kind: KindFloat, f: v.fval()}
	}
	return ValueKey{kind: v.kind, n: v.n, s: v.s}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Bits returns the scalar payload word: an int's bits, a float's
// IEEE-754 bits, 1 or 0 for a bool, and 0 for a string or null.
func (v Value) Bits() uint64 { return v.n }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindInvalid }

// Int returns the int64 payload. It panics if the value is not KindInt;
// use AsInt for a checked variant.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("entity: Int() on %s value", v.kind))
	}
	return v.ival()
}

// Float returns the float64 payload. It panics if the value is not
// KindFloat; use AsFloat for a checked, coercing variant.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("entity: Float() on %s value", v.kind))
	}
	return v.fval()
}

// Str returns the string payload. It panics if the value is not KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("entity: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the bool payload. It panics if the value is not KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("entity: Bool() on %s value", v.kind))
	}
	return v.bval()
}

// AsInt returns the value as an int64 if it is an int.
func (v Value) AsInt() (int64, bool) {
	if v.kind == KindInt {
		return v.ival(), true
	}
	return 0, false
}

// AsFloat returns the value as a float64, coercing ints. The second result
// reports whether the value was numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.fval(), true
	case KindInt:
		return float64(v.ival()), true
	default:
		return 0, false
	}
}

// AsBool returns the value as a bool if it is a bool.
func (v Value) AsBool() (bool, bool) {
	if v.kind == KindBool {
		return v.bval(), true
	}
	return false, false
}

// AsStr returns the value as a string if it is a string.
func (v Value) AsStr() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindInvalid:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.ival(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.fval(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.bval())
	default:
		return "?"
	}
}

// Compare imposes a total order over all values: first by kind
// (null < int < float < string < bool), then by payload. Numeric values of
// different kinds compare by kind, not numerically, keeping the order
// cheap and total; columns hold a single kind so cross-kind comparisons
// only arise at open range bounds.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInvalid:
		return 0
	case KindInt:
		switch {
		case a.ival() < b.ival():
			return -1
		case a.ival() > b.ival():
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case a.fval() < b.fval():
			return -1
		case a.fval() > b.fval():
			return 1
		}
		return 0
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case !a.bval() && b.bval():
			return -1
		case a.bval() && !b.bval():
			return 1
		}
		return 0
	default:
		return 0
	}
}
