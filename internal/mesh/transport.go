// Package mesh holds the point-to-point transports that carry the tick
// barrier's frames between shard peers: Pipe, an in-process channel
// mesh, and TCPMesh, real sockets between processes or over loopback.
// Both move wire.Frames and copy payloads into pooled buffers, so a
// sender reuses its encoder scratch at once and steady-state traffic
// stops allocating. The codec the payloads are written in is package
// wire, which links no network stack.
package mesh

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gamedb/internal/wire"
)

// Transport is a point-to-point frame mesh between N peers. One
// transport instance is one peer's endpoint.
//
// Contract: Send copies the payload before returning, so callers reuse
// their encoder scratch immediately; Send is safe from multiple
// goroutines (the pipelined barrier encodes concurrently with
// receives). Recv blocks for the next inbound frame and transfers
// payload ownership to the caller, who should hand the buffer back via
// Recycle once decoded so steady-state traffic stops allocating. Frames
// between one (sender, receiver) pair arrive in send order; frames from
// different senders interleave arbitrarily.
type Transport interface {
	// N is the mesh size; Self this endpoint's peer index.
	N() int
	Self() int
	// Send delivers one frame to peer `to`. The frame's Src is stamped
	// with Self.
	Send(to int, kind byte, tick int64, payload []byte) error
	// Recv returns the next inbound frame, blocking until one arrives.
	// It returns io.EOF after Close.
	Recv() (wire.Frame, error)
	// Recycle returns a received frame's payload buffer to the
	// transport's pool.
	Recycle(payload []byte)
	// Stats returns the cumulative traffic counters.
	Stats() wire.Stats
	Close() error
}

// statCounters is the shared atomic implementation behind Stats().
type statCounters struct {
	bytesOut, bytesIn   atomic.Int64
	framesOut, framesIn atomic.Int64
}

func (s *statCounters) snapshot() wire.Stats {
	return wire.Stats{
		BytesOut:  s.bytesOut.Load(),
		BytesIn:   s.bytesIn.Load(),
		FramesOut: s.framesOut.Load(),
		FramesIn:  s.framesIn.Load(),
	}
}

// bufPool recycles payload buffers through a mutex-guarded free list.
// One pool is shared per mesh so a frame's buffer can be recycled by its
// receiver. (A sync.Pool would box every slice header it is handed — a
// slice is three words, not a pointer — so each Put would allocate.)
type bufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns a buffer of length n, reusing the most recently recycled
// one when it is large enough (a smaller one is dropped).
func (bp *bufPool) get(n int) []byte {
	bp.mu.Lock()
	var b []byte
	if k := len(bp.free); k > 0 {
		b = bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
	}
	bp.mu.Unlock()
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp.mu.Lock()
	bp.free = append(bp.free, b[:0])
	bp.mu.Unlock()
}

// Pipe is the in-process transport: a channel mesh with pooled payload
// copies. It prices pure protocol cost — serialization and copying with
// no syscalls — and is the reference peer the TCP transport must agree
// with bit-for-bit.
type Pipe struct {
	self, n int
	inboxes []chan wire.Frame
	pool    *bufPool
	stats   statCounters
	shut    *pipeShutdown
}

// pipeShutdown is the mesh-wide close signal; any endpoint's Close
// tears the whole mesh down exactly once.
type pipeShutdown struct {
	closed chan struct{}
	once   sync.Once
}

// NewPipeGroup builds an n-peer in-process mesh and returns one
// endpoint per peer.
func NewPipeGroup(n int) []*Pipe {
	inboxes := make([]chan wire.Frame, n)
	for i := range inboxes {
		// A peer sends at most n-1 frames per phase and runs at most one
		// phase ahead of the slowest receiver, so a couple of phases'
		// worth of slack means lockstep senders never block.
		inboxes[i] = make(chan wire.Frame, 8*n+32)
	}
	pool := &bufPool{}
	shut := &pipeShutdown{closed: make(chan struct{})}
	ps := make([]*Pipe, n)
	for i := range ps {
		ps[i] = &Pipe{self: i, n: n, inboxes: inboxes, pool: pool, shut: shut}
	}
	return ps
}

// N returns the mesh size.
func (p *Pipe) N() int { return p.n }

// Self returns this endpoint's peer index.
func (p *Pipe) Self() int { return p.self }

// Send copies payload into a pooled buffer and delivers it to peer to.
func (p *Pipe) Send(to int, kind byte, tick int64, payload []byte) error {
	if to < 0 || to >= p.n || to == p.self {
		return fmt.Errorf("mesh: pipe send to bad peer %d (self %d of %d)", to, p.self, p.n)
	}
	buf := p.pool.get(len(payload))
	copy(buf, payload)
	f := wire.Frame{Kind: kind, Src: p.self, Tick: tick, Payload: buf}
	select {
	case p.inboxes[to] <- f:
	case <-p.shut.closed:
		return io.EOF
	}
	p.stats.bytesOut.Add(int64(len(payload)))
	p.stats.framesOut.Add(1)
	return nil
}

// Recv blocks for the next inbound frame.
func (p *Pipe) Recv() (wire.Frame, error) {
	select {
	case f := <-p.inboxes[p.self]:
		p.stats.bytesIn.Add(int64(len(f.Payload)))
		p.stats.framesIn.Add(1)
		return f, nil
	case <-p.shut.closed:
		// Drain anything that raced the close so lockstep shutdown (one
		// peer closing while another still receives) stays orderly.
		select {
		case f := <-p.inboxes[p.self]:
			p.stats.bytesIn.Add(int64(len(f.Payload)))
			p.stats.framesIn.Add(1)
			return f, nil
		default:
			return wire.Frame{}, io.EOF
		}
	}
}

// Recycle returns a received payload to the mesh pool.
func (p *Pipe) Recycle(payload []byte) { p.pool.put(payload) }

// Stats returns this endpoint's cumulative counters.
func (p *Pipe) Stats() wire.Stats { return p.stats.snapshot() }

// Close tears the whole mesh down (all endpoints share the signal).
func (p *Pipe) Close() error {
	p.shut.once.Do(func() { close(p.shut.closed) })
	return nil
}

// helloKind is the transport-internal handshake frame a dialer opens a
// TCP connection with; it never reaches Recv.
const helloKind byte = 0xFF

// TCPMesh is the cross-process transport: a full mesh of TCP
// connections (peer i dials every lower-numbered peer and accepts from
// every higher-numbered one, so each pair shares exactly one
// connection), with one reader goroutine per connection fanning into a
// single inbox. Sends write one pre-assembled buffer per frame under a
// per-connection lock, so frames never interleave on the stream.
type TCPMesh struct {
	self, n int
	ln      net.Listener
	conns   []net.Conn // by peer, nil at self
	sendMu  []sync.Mutex
	sendBuf [][]byte
	inbox   chan wire.Frame
	pool    *bufPool
	stats   statCounters
	closed  chan struct{}
	once    sync.Once
	readers sync.WaitGroup
}

// dialRetry dials addr until it answers or the deadline passes —
// peer processes start in arbitrary order.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mesh: dial %s: %w", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// NewTCPMesh builds peer self's endpoint of an n-way mesh, where
// addrs[i] is peer i's listen address. It blocks until every pairwise
// connection is up (or the ~30s handshake deadline passes).
func NewTCPMesh(self int, addrs []string) (*TCPMesh, error) {
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("mesh: listen %s: %w", addrs[self], err)
	}
	return newTCPMesh(self, addrs, ln)
}

func newTCPMesh(self int, addrs []string, ln net.Listener) (*TCPMesh, error) {
	n := len(addrs)
	m := &TCPMesh{
		self:    self,
		n:       n,
		ln:      ln,
		conns:   make([]net.Conn, n),
		sendMu:  make([]sync.Mutex, n),
		sendBuf: make([][]byte, n),
		inbox:   make(chan wire.Frame, 8*n+32),
		pool:    &bufPool{},
		closed:  make(chan struct{}),
	}
	deadline := time.Now().Add(30 * time.Second)

	// Accept from higher-numbered peers concurrently with dialing the
	// lower-numbered ones, or two middle peers deadlock waiting on each
	// other.
	type accepted struct {
		peer int
		conn net.Conn
		err  error
	}
	expect := n - 1 - self
	accCh := make(chan accepted, expect)
	if expect > 0 {
		go func() {
			for i := 0; i < expect; i++ {
				c, err := ln.Accept()
				if err != nil {
					accCh <- accepted{err: err}
					return
				}
				// The dialer identifies itself with one hello frame.
				f, _, err := wire.ReadFrame(c, nil)
				if err != nil || f.Kind != helloKind {
					c.Close()
					accCh <- accepted{err: fmt.Errorf("mesh: bad hello: %v", err)}
					return
				}
				accCh <- accepted{peer: f.Src, conn: c}
			}
		}()
	}
	for j := 0; j < self; j++ {
		c, err := dialRetry(addrs[j], deadline)
		if err != nil {
			m.Close()
			return nil, err
		}
		hello := wire.AppendFrame(nil, wire.Frame{Kind: helloKind, Src: self})
		if _, err := c.Write(hello); err != nil {
			c.Close()
			m.Close()
			return nil, fmt.Errorf("mesh: hello to %d: %w", j, err)
		}
		m.conns[j] = c
	}
	for i := 0; i < expect; i++ {
		a := <-accCh
		if a.err != nil {
			m.Close()
			return nil, a.err
		}
		if a.peer <= self || a.peer >= n || m.conns[a.peer] != nil {
			a.conn.Close()
			m.Close()
			return nil, fmt.Errorf("mesh: unexpected hello from peer %d", a.peer)
		}
		m.conns[a.peer] = a.conn
	}
	for peer, c := range m.conns {
		if c == nil {
			continue
		}
		m.readers.Add(1)
		go m.readLoop(peer, c)
	}
	return m, nil
}

// readLoop frames one connection's stream into the shared inbox.
func (m *TCPMesh) readLoop(peer int, c net.Conn) {
	defer m.readers.Done()
	for {
		buf := m.pool.get(0)
		f, buf, err := wire.ReadFrame(c, buf[:cap(buf)])
		if err != nil {
			m.pool.put(buf)
			return
		}
		if f.Src != peer {
			// A peer cannot speak for another; treat as corruption.
			m.pool.put(buf)
			return
		}
		m.stats.bytesIn.Add(int64(len(buf) + 4))
		m.stats.framesIn.Add(1)
		select {
		case m.inbox <- f:
		case <-m.closed:
			m.pool.put(buf)
			return
		}
	}
}

// N returns the mesh size.
func (m *TCPMesh) N() int { return m.n }

// Self returns this endpoint's peer index.
func (m *TCPMesh) Self() int { return m.self }

// Send assembles header+payload into the destination's reusable send
// buffer and writes it in one call.
func (m *TCPMesh) Send(to int, kind byte, tick int64, payload []byte) error {
	if to < 0 || to >= m.n || to == m.self || m.conns[to] == nil {
		return fmt.Errorf("mesh: tcp send to bad peer %d (self %d of %d)", to, m.self, m.n)
	}
	m.sendMu[to].Lock()
	buf := wire.AppendFrame(m.sendBuf[to][:0], wire.Frame{Kind: kind, Src: m.self, Tick: tick, Payload: payload})
	m.sendBuf[to] = buf
	_, err := m.conns[to].Write(buf)
	m.sendMu[to].Unlock()
	if err != nil {
		return fmt.Errorf("mesh: send to %d: %w", to, err)
	}
	m.stats.bytesOut.Add(int64(len(buf)))
	m.stats.framesOut.Add(1)
	return nil
}

// Recv blocks for the next inbound frame from any peer.
func (m *TCPMesh) Recv() (wire.Frame, error) {
	select {
	case f := <-m.inbox:
		return f, nil
	case <-m.closed:
		select {
		case f := <-m.inbox:
			return f, nil
		default:
			return wire.Frame{}, io.EOF
		}
	}
}

// Recycle returns a received payload buffer to the pool (wire.ReadFrame left
// the payload at the start of its buffer, so the whole capacity comes
// back).
func (m *TCPMesh) Recycle(payload []byte) { m.pool.put(payload) }

// Stats returns this endpoint's cumulative counters.
func (m *TCPMesh) Stats() wire.Stats { return m.stats.snapshot() }

// Close shuts the endpoint down: listener, connections, readers.
func (m *TCPMesh) Close() error {
	m.once.Do(func() {
		close(m.closed)
		if m.ln != nil {
			m.ln.Close()
		}
		for _, c := range m.conns {
			if c != nil {
				c.Close()
			}
		}
	})
	m.readers.Wait()
	return nil
}

// NewTCPLoopbackGroup builds an n-peer mesh over loopback TCP inside
// one process: real sockets, real serialization, no subprocess
// orchestration — what shard.NewTCPCluster runs on.
func NewTCPLoopbackGroup(n int) ([]*TCPMesh, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	meshes := make([]*TCPMesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			meshes[i], errs[i] = newTCPMesh(i, addrs, lns[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
			return nil, err
		}
	}
	return meshes, nil
}
