// Package wire is the tick-barrier wire protocol's codec: a
// length-prefixed binary encoding for every cross-shard exchange —
// effect forwarding, handoff rows, ghost-refresh ships, foreign
// invalidations — plus the frame that carries one sender's payload for
// one receiver, its stream header and the traffic tally a transport
// keeps. The transports that move frames between shards live in package
// mesh; wire links no network stack, so the deterministic kernel that
// encodes and decodes through it links none either.
//
// The codec is allocation-free on the encode hot path: an Enc is a
// reusable byte buffer and values append as fixed-width little-endian or
// varint primitives. Decoding is zero-copy for primitives and interns
// repeated strings (column names, table names, archetype names recur
// every tick), so steady-state decode allocates only for genuinely new
// strings and the value slices handed to the runtime.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"gamedb/internal/entity"
)

// Enc is a reusable append-only encoder. The zero value is ready to
// use; Reset keeps the backing array, so a long-lived Enc stops
// allocating once it has grown to the workload's frame size.
type Enc struct {
	b []byte
}

// Reset truncates the buffer, keeping capacity.
func (e *Enc) Reset() { e.b = e.b[:0] }

// Bytes returns the encoded buffer. It aliases the encoder's scratch
// and is valid until the next Reset/append.
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the encoded length so far.
func (e *Enc) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.b = append(e.b, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// F64 appends a float64 as its raw IEEE-754 bits, little-endian —
// bit-exact round-trips are what keep same-seed hashes identical across
// process boundaries.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a uvarint length prefix followed by the string bytes.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Value appends one entity.Value: a kind byte plus the kind's payload.
// Null values carry the kind byte alone.
func (e *Enc) Value(v entity.Value) {
	e.U8(byte(v.Kind()))
	switch v.Kind() {
	case entity.KindInt:
		e.Varint(v.Int())
	case entity.KindFloat:
		e.F64(v.Float())
	case entity.KindString:
		e.Str(v.Str())
	case entity.KindBool:
		e.Bool(v.Bool())
	}
}

// Row appends a uvarint column count followed by each value.
func (e *Enc) Row(row []entity.Value) {
	e.Uvarint(uint64(len(row)))
	for _, v := range row {
		e.Value(v)
	}
}

// Interner deduplicates decoded strings: column, table and archetype
// names recur in every frame of every tick, so after warmup a decode
// allocates nothing for them. Lookup by []byte key compiles to an
// allocation-free map probe.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// Intern returns the canonical string for b, allocating only on first
// sight.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Dec decodes one payload with a sticky error: the first malformed or
// truncated read latches Err and every subsequent read returns a zero
// value, so message decoders can run straight-line and check once.
type Dec struct {
	b   []byte
	off int
	err error
	in  *Interner
}

// NewDec returns a decoder over b. The decoder reads b in place.
func NewDec(b []byte, in *Interner) *Dec { return &Dec{b: b, in: in} }

// Reset rebinds the decoder to a new payload, clearing the error.
func (d *Dec) Reset(b []byte) {
	d.b, d.off, d.err = b, 0, nil
}

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Fail latches a decode error from a message-layer validity check
// (e.g. an element count that exceeds the remaining payload).
func (d *Dec) Fail(what string) { d.fail(what) }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or corrupt payload at offset %d (%s)", d.off, what)
	}
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// F64 reads a raw-bits float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a one-byte bool.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string, interning it when the decoder
// has an interner.
func (d *Dec) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string body")
		return ""
	}
	raw := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	if d.in != nil {
		return d.in.Intern(raw)
	}
	return string(raw)
}

// Value reads one entity.Value.
func (d *Dec) Value() entity.Value {
	switch k := entity.Kind(d.U8()); k {
	case entity.KindInvalid:
		return entity.Null()
	case entity.KindInt:
		return entity.Int(d.Varint())
	case entity.KindFloat:
		return entity.Float(d.F64())
	case entity.KindString:
		return entity.Str(d.Str())
	case entity.KindBool:
		return entity.Bool(d.Bool())
	default:
		d.fail("value kind")
		return entity.Null()
	}
}

// Row reads a value row into dst (truncated and reused), returning it.
func (d *Dec) Row(dst []entity.Value) []entity.Value {
	n := d.Uvarint()
	if d.err != nil {
		return dst[:0]
	}
	// Each value costs at least one kind byte, so n can never exceed the
	// remaining payload — reject before allocating for a corrupt count.
	if n > uint64(d.Remaining()) {
		d.fail("row count")
		return dst[:0]
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		dst = append(dst, d.Value())
	}
	return dst
}
