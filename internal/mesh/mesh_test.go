package mesh

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

func exerciseTransport(t *testing.T, trs []Transport) {
	t.Helper()
	n := len(trs)
	payload := func(from, to, seq int) []byte {
		return []byte(fmt.Sprintf("p%d->%d#%d", from, to, seq))
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			tr := trs[self]
			for seq := 0; seq < 20; seq++ {
				for to := 0; to < n; to++ {
					if to == self {
						continue
					}
					if err := tr.Send(to, byte(1+seq%4), int64(seq), payload(self, to, seq)); err != nil {
						errs <- fmt.Errorf("peer %d send: %w", self, err)
						return
					}
				}
			}
			// Expect 20 frames from each other peer, in per-sender order.
			next := make([]int, n)
			for got := 0; got < 20*(n-1); got++ {
				f, err := tr.Recv()
				if err != nil {
					errs <- fmt.Errorf("peer %d recv: %w", self, err)
					return
				}
				seq := next[f.Src]
				if f.Tick != int64(seq) || !bytes.Equal(f.Payload, payload(f.Src, self, seq)) {
					errs <- fmt.Errorf("peer %d: out-of-order or corrupt frame from %d: tick %d payload %q", self, f.Src, f.Tick, f.Payload)
					return
				}
				next[f.Src]++
				tr.Recycle(f.Payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, tr := range trs {
		st := tr.Stats()
		if st.FramesOut != int64(20*(n-1)) || st.FramesIn != int64(20*(n-1)) {
			t.Fatalf("peer %d stats: %+v", i, st)
		}
		if st.BytesOut == 0 || st.BytesIn == 0 {
			t.Fatalf("peer %d: zero byte counters: %+v", i, st)
		}
	}
	for _, tr := range trs {
		tr.Close()
	}
	// Recv after close drains to EOF.
	deadline := time.After(2 * time.Second)
	done := make(chan struct{})
	go func() {
		_, err := trs[0].Recv()
		if err != io.EOF {
			t.Errorf("recv after close: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatalf("recv after close did not return")
	}
}

// TestPipeTransport exercises the in-process channel mesh.
func TestPipeTransport(t *testing.T) {
	for _, n := range []int{2, 4} {
		ps := NewPipeGroup(n)
		trs := make([]Transport, n)
		for i := range ps {
			trs[i] = ps[i]
		}
		exerciseTransport(t, trs)
	}
}

// TestTCPTransport exercises a loopback TCP mesh: real sockets, same
// contract as the pipe.
func TestTCPTransport(t *testing.T) {
	for _, n := range []int{2, 3} {
		ms, err := NewTCPLoopbackGroup(n)
		if err != nil {
			t.Fatalf("loopback group: %v", err)
		}
		trs := make([]Transport, n)
		for i := range ms {
			trs[i] = ms[i]
		}
		exerciseTransport(t, trs)
	}
}

// TestFrameRoundTripAllocs pins the recycled frame path at zero
// allocations on both transports: once the pool holds a buffer big
// enough, a Send → Recv → Recycle round trip reuses it (the receiving
// reader goroutine of the TCP mesh included).
func TestFrameRoundTripAllocs(t *testing.T) {
	ms, err := NewTCPLoopbackGroup(2)
	if err != nil {
		t.Fatalf("loopback group: %v", err)
	}
	ps := NewPipeGroup(2)
	for _, trs := range [][2]Transport{{ps[0], ps[1]}, {ms[0], ms[1]}} {
		payload := make([]byte, 700)
		roundTrip := func() {
			if err := trs[0].Send(1, 1, 7, payload); err != nil {
				t.Fatal(err)
			}
			f, err := trs[1].Recv()
			if err != nil {
				t.Fatal(err)
			}
			trs[1].Recycle(f.Payload)
		}
		for i := 0; i < 8; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("%T: a recycled round trip allocates %.2f objects, want 0", trs[0], allocs)
		}
		trs[0].Close()
		trs[1].Close()
	}
}

// BenchmarkPipeRoundTrip prices one frame send+recv over the pipe mesh.
func BenchmarkPipeRoundTrip(b *testing.B) {
	ps := NewPipeGroup(2)
	defer ps[0].Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps[0].Send(1, 1, int64(i), payload); err != nil {
			b.Fatal(err)
		}
		f, err := ps[1].Recv()
		if err != nil {
			b.Fatal(err)
		}
		ps[1].Recycle(f.Payload)
	}
}
