package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"gamedb/internal/entity"
)

func randValue(rng *rand.Rand) entity.Value {
	switch rng.Intn(5) {
	case 0:
		return entity.Int(rng.Int63() - rng.Int63())
	case 1:
		// Include negatives, tiny magnitudes and exact integers.
		return entity.Float(math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30))
	case 2:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return entity.Str(string(b))
	case 3:
		return entity.Bool(rng.Intn(2) == 0)
	default:
		return entity.Null()
	}
}

func valuesEqual(a, b entity.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case entity.KindInt:
		return a.Int() == b.Int()
	case entity.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case entity.KindString:
		return a.Str() == b.Str()
	case entity.KindBool:
		return a.Bool() == b.Bool()
	default:
		return true
	}
}

// TestPrimitiveRoundTrip drives every primitive through encode→decode
// with randomized values and checks identity, including edge values.
func TestPrimitiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Enc
	for iter := 0; iter < 200; iter++ {
		e.Reset()
		u8 := byte(rng.Intn(256))
		u64 := rng.Uint64()
		uv := []uint64{0, 1, 127, 128, math.MaxUint64, rng.Uint64()}[iter%6]
		vv := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, rng.Int63() - rng.Int63()}[iter%6]
		f := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), rng.NormFloat64()}[iter%6]
		s := fmt.Sprintf("col_%d", rng.Intn(1000))
		bl := rng.Intn(2) == 0
		e.U8(u8)
		e.U64(u64)
		e.Uvarint(uv)
		e.Varint(vv)
		e.F64(f)
		e.Str(s)
		e.Bool(bl)

		d := NewDec(e.Bytes(), nil)
		if got := d.U8(); got != u8 {
			t.Fatalf("u8: got %d want %d", got, u8)
		}
		if got := d.U64(); got != u64 {
			t.Fatalf("u64: got %d want %d", got, u64)
		}
		if got := d.Uvarint(); got != uv {
			t.Fatalf("uvarint: got %d want %d", got, uv)
		}
		if got := d.Varint(); got != vv {
			t.Fatalf("varint: got %d want %d", got, vv)
		}
		if got := d.F64(); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("f64: got %v want %v (bits differ)", got, f)
		}
		if got := d.Str(); got != s {
			t.Fatalf("str: got %q want %q", got, s)
		}
		if got := d.Bool(); got != bl {
			t.Fatalf("bool: got %v want %v", got, bl)
		}
		if d.Err() != nil {
			t.Fatalf("decode error: %v", d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("leftover bytes: %d", d.Remaining())
		}
	}
}

// TestValueRowRoundTrip checks Value and Row encode→decode identity for
// all kinds, empty rows included.
func TestValueRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := NewInterner()
	var e Enc
	for iter := 0; iter < 200; iter++ {
		row := make([]entity.Value, rng.Intn(8))
		for i := range row {
			row[i] = randValue(rng)
		}
		e.Reset()
		e.Row(row)
		d := NewDec(e.Bytes(), in)
		got := d.Row(nil)
		if d.Err() != nil {
			t.Fatalf("row decode: %v", d.Err())
		}
		if len(got) != len(row) {
			t.Fatalf("row len: got %d want %d", len(got), len(row))
		}
		for i := range row {
			if !valuesEqual(got[i], row[i]) {
				t.Fatalf("row[%d]: got %#v want %#v", i, got[i], row[i])
			}
		}
	}
}

// TestInternerDedup checks that repeated strings decode to the same
// backing string (no per-decode alloc after first sight).
func TestInternerDedup(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]byte("position_x"))
	b := in.Intern([]byte("position_x"))
	// Same canonical string — comparing data pointers via string header
	// equality is not expressible portably, but the map guarantees it;
	// at minimum the values match and a second probe allocates nothing.
	if a != b {
		t.Fatalf("interner returned different strings")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = in.Intern([]byte("position_x"))
	})
	if allocs != 0 {
		t.Fatalf("interned lookup allocates %.1f/op", allocs)
	}
}

// TestDecCorrupt drives the decoder over truncated and corrupt payloads
// and checks every error path latches instead of panicking.
func TestDecCorrupt(t *testing.T) {
	var e Enc
	e.Str("hello")
	full := append([]byte(nil), e.Bytes()...)

	// Truncation at every prefix must produce an error, never a panic.
	for i := 0; i < len(full); i++ {
		d := NewDec(full[:i], nil)
		_ = d.Str()
		if d.Err() == nil {
			t.Fatalf("truncated at %d: no error", i)
		}
	}

	// String length prefix larger than the payload.
	e.Reset()
	e.Uvarint(1 << 40)
	d := NewDec(e.Bytes(), nil)
	if d.Str(); d.Err() == nil {
		t.Fatalf("oversized string length: no error")
	}

	// Unknown value kind byte.
	d = NewDec([]byte{0x77}, nil)
	if d.Value(); d.Err() == nil {
		t.Fatalf("bad value kind: no error")
	}

	// Row count larger than remaining payload must be rejected before
	// any allocation.
	e.Reset()
	e.Uvarint(1 << 50)
	d = NewDec(e.Bytes(), nil)
	if d.Row(nil); d.Err() == nil {
		t.Fatalf("oversized row count: no error")
	}

	// Sticky error: reads after a failure return zero values.
	e.Reset()
	e.U8(9)
	d = NewDec(e.Bytes(), nil)
	_ = d.U8()
	_ = d.U64() // fails: only 1 byte
	if d.Err() == nil {
		t.Fatalf("expected sticky error")
	}
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
}

// TestFrameRoundTrip streams frames through AppendFrame/ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	want := make([]Frame, 50)
	for i := range want {
		p := make([]byte, rng.Intn(64))
		rng.Read(p)
		want[i] = Frame{Kind: byte(rng.Intn(6) + 1), Src: rng.Intn(8), Tick: rng.Int63() - rng.Int63(), Payload: p}
		buf.Write(AppendFrame(nil, want[i]))
	}
	var scratch []byte
	for i, w := range want {
		var f Frame
		var err error
		f, scratch, err = ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != w.Kind || f.Src != w.Src || f.Tick != w.Tick || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, f, w)
		}
	}
	if _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

// TestFrameCorrupt checks stream framing rejects bad lengths and
// truncated bodies.
func TestFrameCorrupt(t *testing.T) {
	// Zero length.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); err == nil {
		t.Fatalf("zero-length frame accepted")
	}
	// Absurd length.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), nil); err == nil {
		t.Fatalf("oversized frame accepted")
	}
	// Truncated body.
	full := AppendFrame(nil, Frame{Kind: 1, Src: 2, Tick: 3, Payload: []byte("abcdef")})
	for i := 1; i < len(full); i++ {
		if _, _, err := ReadFrame(bytes.NewReader(full[:i]), nil); err == nil {
			t.Fatalf("truncated frame at %d accepted", i)
		}
	}
}

// TestEncodeAllocsSteadyState pins the encode hot path at zero
// allocations once the scratch buffer has grown.
func TestEncodeAllocsSteadyState(t *testing.T) {
	var e Enc
	row := []entity.Value{entity.Int(42), entity.Float(1.5), entity.Str("raider"), entity.Bool(true), entity.Null()}
	// Warm the buffer.
	for i := 0; i < 4; i++ {
		e.Reset()
		e.Row(row)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		for i := 0; i < 32; i++ {
			e.U64(uint64(i))
			e.Varint(int64(-i))
			e.Row(row)
			e.Str("units")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeAllocsSteadyState pins steady-state decode of interned
// strings and primitives at zero allocations (rows excluded — they hand
// fresh slices to the runtime by design, which reuses them via Dec.Row
// dst).
func TestDecodeAllocsSteadyState(t *testing.T) {
	var e Enc
	for i := 0; i < 16; i++ {
		e.U64(uint64(i))
		e.Str("units")
		e.F64(float64(i) * 1.25)
	}
	in := NewInterner()
	in.Intern([]byte("units"))
	d := NewDec(nil, in)
	allocs := testing.AllocsPerRun(200, func() {
		d.Reset(e.Bytes())
		for i := 0; i < 16; i++ {
			_ = d.U64()
			_ = d.Str()
			_ = d.F64()
		}
		if d.Err() != nil {
			t.Fatalf("decode: %v", d.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkEncodeRow prices the per-row encode cost.
func BenchmarkEncodeRow(b *testing.B) {
	var e Enc
	row := []entity.Value{entity.Float(1.0), entity.Float(2.0), entity.Float(0.5), entity.Float(-0.5), entity.Int(3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.U64(uint64(i))
		e.Str("units")
		e.Row(row)
	}
}
