package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFramePayload bounds one frame's payload. A tick's coalesced
// exchange for realistic crowds is well under a megabyte; the cap
// exists so a corrupt length prefix on a stream transport fails fast
// instead of asking the allocator for terabytes.
const MaxFramePayload = 256 << 20

// Stats is one transport's cumulative traffic tally (package mesh's
// transports keep it). Bytes count frame payloads plus headers on
// stream transports and payloads alone on the in-process pipe (there is
// no header to pay for).
type Stats struct {
	BytesOut, BytesIn   int64
	FramesOut, FramesIn int64
}

// Frame is one coalesced message between two peers: everything one
// sender has for one receiver in one barrier phase of one tick. Kind
// is protocol-defined (the shard peer runtime names its phases); Src
// is the sending peer; Tick disambiguates frames when a fast peer runs
// a phase ahead of a slow one.
type Frame struct {
	Kind    byte
	Src     int
	Tick    int64
	Payload []byte
}

// frame header on stream transports:
//
//	[u32 little-endian body length][u8 kind][uvarint src][varint tick][payload]
//
// The length prefix covers everything after itself, so a reader can
// frame the stream without understanding any kind.
const frameHeadMax = 4 + 1 + binary.MaxVarintLen64 + binary.MaxVarintLen64

// AppendFrame encodes f (header + payload) onto dst and returns it.
func AppendFrame(dst []byte, f Frame) []byte {
	var head [frameHeadMax]byte
	n := 4 // length backfilled below
	head[4] = f.Kind
	n++
	n += binary.PutUvarint(head[n:], uint64(f.Src))
	n += binary.PutVarint(head[n:], f.Tick)
	binary.LittleEndian.PutUint32(head[:4], uint32(n-4+len(f.Payload)))
	dst = append(dst, head[:n]...)
	return append(dst, f.Payload...)
}

// ReadFrame reads one frame from r, reusing buf for the body when it
// fits. The returned frame's payload is moved to the start of the
// returned buffer and aliases it, so recycling the payload hands the
// buffer's whole capacity back.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The length prefix lands in buf too: a local array handed to the
	// io.Reader interface would escape and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n < 1 || n > MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	var f Frame
	f.Kind = buf[0]
	off := 1
	src, sn := binary.Uvarint(buf[off:])
	if sn <= 0 {
		return Frame{}, buf, fmt.Errorf("wire: corrupt frame src")
	}
	off += sn
	tick, tn := binary.Varint(buf[off:])
	if tn <= 0 {
		return Frame{}, buf, fmt.Errorf("wire: corrupt frame tick")
	}
	off += tn
	f.Src = int(src)
	f.Tick = tick
	f.Payload = buf[:copy(buf, buf[off:])]
	return f, buf, nil
}
