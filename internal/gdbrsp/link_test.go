package gdbrsp

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

// fakeStub runs a scripted RSP peer: for each received packet it acks and
// calls reply; a nil return means "go silent" (never answer). Used to drive
// the client into link failure modes a well-behaved Server never produces.
func fakeStub(t *testing.T, reply func(payload string) *string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var in []byte
		for {
			payload, err := readPacket(r, in, maxPacket)
			if err != nil {
				return
			}
			in = payload
			if _, err := conn.Write([]byte("+")); err != nil {
				return
			}
			rep := reply(string(payload))
			if rep == nil {
				select {} // silent stub: hold the conn open forever
			}
			if _, err := conn.Write(appendPacket(nil, []byte(*rep))); err != nil {
				return
			}
			// Drain the client's ack.
			if b, err := r.Peek(1); err == nil && (b[0] == '+' || b[0] == '-') {
				_, _ = r.ReadByte()
			}
		}
	}()
	return ln.Addr().String()
}

// TestNakRetransmitBound checks the client gives up on a stub that rejects
// every packet instead of retransmitting forever.
func TestNakRetransmitBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			if _, err := conn.Write([]byte("-")); err != nil {
				return
			}
		}
	}()
	_, err = Dial(ln.Addr().String(), ctypes.NewRegistry(), nil)
	if err == nil {
		t.Fatal("dial to NAK-storm stub succeeded")
	}
	if !errors.Is(err, ErrNakLimit) {
		t.Errorf("error = %v, want ErrNakLimit", err)
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Errorf("error %v is not a *LinkError", err)
	}
}

// TestAckNoiseBound checks the client gives up on a stub streaming garbage
// instead of an ack.
func TestAckNoiseBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		junk := []byte(strings.Repeat("z", 1024))
		for {
			if _, err := conn.Write(junk); err != nil {
				return
			}
		}
	}()
	_, err = Dial(ln.Addr().String(), ctypes.NewRegistry(), nil)
	if err == nil {
		t.Fatal("dial to noise stub succeeded")
	}
	if !errors.Is(err, ErrAckNoise) {
		t.Errorf("error = %v, want ErrAckNoise", err)
	}
}

// TestLinkTimeout checks a read deadline fires on a stub that negotiates
// fine and then goes silent mid-session.
func TestLinkTimeout(t *testing.T) {
	addr := fakeStub(t, func(payload string) *string {
		switch {
		case strings.HasPrefix(payload, "qSupported"):
			s := "PacketSize=1000"
			return &s
		case payload == "?":
			s := "S05"
			return &s
		default:
			return nil // silence: let the client's deadline fire
		}
	})
	client, err := Dial(addr, ctypes.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	client.SetTimeout(50 * time.Millisecond)
	var buf [8]byte
	err = client.ReadMemory(0x1000, buf[:])
	if err == nil {
		t.Fatal("read from silent stub succeeded")
	}
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a *LinkError", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v does not unwrap to a timeout", err)
	}
}

// stallOnce is a backing target whose first read at addr waits stall
// before answering, then closes released.
type stallOnce struct {
	target.Target
	addr     uint64
	stall    time.Duration
	once     sync.Once
	released chan struct{}
}

func (s *stallOnce) ReadMemory(addr uint64, buf []byte) error {
	if addr == s.addr {
		s.once.Do(func() {
			time.Sleep(s.stall)
			close(s.released)
		})
	}
	return s.Target.ReadMemory(addr, buf)
}

// TestLateReplyIsNotAnAnswer checks a client whose read timed out refuses
// later reads instead of taking the stub's late reply as their answer:
// RSP cannot pair a reply with its request, so after a failed round trip
// the client is out of sync until it is dialed again.
func TestLateReplyIsNotAnAnswer(t *testing.T) {
	const base = uint64(0x5100_0000)
	m := mem.New()
	want := make([]byte, 3*16)
	for i := range want {
		want[i] = byte(i + 1)
	}
	m.Write(base, want)
	sim := target.NewSim(m, ctypes.NewRegistry())
	backing := &stallOnce{Target: sim, addr: base, stall: 150 * time.Millisecond, released: make(chan struct{})}
	srv, err := Serve("127.0.0.1:0", backing)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(50 * time.Millisecond)

	var buf [16]byte
	err = client.ReadMemory(base, buf[:])
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("stalled read returned %v, want a *LinkError", err)
	}
	<-backing.released // the late reply is now on its way to the client
	for i := 1; i <= 2; i++ {
		addr := base + uint64(16*i)
		err := client.ReadMemory(addr, buf[:])
		if err == nil {
			t.Fatalf("read %d after the timeout returned no error and %x (want %x or an error)",
				i, buf, want[16*i:16*i+16])
		}
		if !errors.As(err, &le) || !errors.Is(err, ErrDesync) {
			t.Fatalf("read %d after the timeout returned %v, want a *LinkError wrapping ErrDesync", i, err)
		}
	}

	// Dialing again gives a client that reads the right bytes.
	fresh, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.ReadMemory(base+16, buf[:]); err != nil || !bytes.Equal(buf[:], want[16:32]) {
		t.Fatalf("fresh client read %x, %v; want %x", buf, err, want[16:32])
	}
}

// TestClientRejectsOversizeReply checks the client enforces the negotiated
// PacketSize on replies: a stub that negotiates small and then over-delivers
// is a protocol violation, not free bandwidth.
func TestClientRejectsOversizeReply(t *testing.T) {
	big := strings.Repeat("ab", 300) // 600 chars > negotiated 0x40
	addr := fakeStub(t, func(payload string) *string {
		switch {
		case strings.HasPrefix(payload, "qSupported"):
			s := "PacketSize=40" // hex: 64 bytes
			return &s
		case payload == "?":
			s := "S05"
			return &s
		default:
			return &big
		}
	})
	client, err := Dial(addr, ctypes.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if client.PacketSize() != 0x40 {
		t.Fatalf("negotiated %#x, want 0x40", client.PacketSize())
	}
	var buf [8]byte
	err = client.ReadMemory(0x1000, buf[:])
	if err == nil {
		t.Fatal("oversize reply accepted")
	}
	if !strings.Contains(err.Error(), "exceeds negotiated size") {
		t.Errorf("error = %v, want negotiated-size rejection", err)
	}
}

// TestServerRejectsOversizePacket checks the server drops a connection that
// sends a payload above the advertised PacketSize.
func TestServerRejectsOversizePacket(t *testing.T) {
	m := mem.New()
	sim := target.NewSim(m, ctypes.NewRegistry())
	srv, err := Serve("127.0.0.1:0", sim, WithPacketSize(128))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendPacket(nil, []byte(strings.Repeat("q", 500)))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return // connection dropped: the server refused the frame
		}
		for _, b := range buf[:n] {
			if b == '$' {
				t.Fatal("server replied to an oversize packet")
			}
		}
	}
}

// holeyTarget builds a sim with two mapped islands around an unmapped hole:
// [base, base+2p) mapped, [base+2p, base+3p) hole, [base+3p, base+4p) mapped.
func holeyTarget(t *testing.T) (*target.Sim, uint64) {
	t.Helper()
	const p = uint64(target.PageSize)
	base := uint64(0x6000_0000)
	m := mem.New()
	fill := func(addr, size uint64) {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(uint64(i) + addr>>12)
		}
		m.Write(addr, b)
	}
	fill(base, 2*p)
	fill(base+3*p, p)
	// Far-away islands pad the memory map past one small packet, so the
	// chunked map fetch genuinely exercises continuation framing.
	for i := uint64(0); i < 6; i++ {
		fill(base+0x10_0000+2*i*p, p)
	}
	return target.NewSim(m, ctypes.NewRegistry()), base
}

// TestMemoryMapAnnex fetches the stub's memory map over a tiny packet size
// (forcing continuation chunks) and checks ClipMapped clips around the hole.
func TestMemoryMapAnnex(t *testing.T) {
	sim, base := holeyTarget(t)
	const p = uint64(target.PageSize)

	srv, err := Serve("127.0.0.1:0", sim, WithPacketSize(minPacket))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.hasMemMap {
		t.Fatal("server should advertise qXfer:memory-map:read+")
	}

	got := client.MemoryMap()
	want := sim.MappedRanges()
	if len(got) != len(want) {
		t.Fatalf("map = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("map[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if conts := client.Stats().Continuations.Load(); conts == 0 {
		t.Error("tiny packet size should force memory-map continuations")
	}

	// Clip a span covering both islands and the hole.
	ranges, ok := client.ClipMapped(base+p, 3*p)
	if !ok {
		t.Fatal("ClipMapped not supported despite annex")
	}
	wantClip := []target.Range{
		{Addr: base + p, Size: p},
		{Addr: base + 3*p, Size: p},
	}
	if len(ranges) != len(wantClip) {
		t.Fatalf("clip = %v, want %v", ranges, wantClip)
	}
	for i := range wantClip {
		if ranges[i] != wantClip[i] {
			t.Fatalf("clip[%d] = %+v, want %+v", i, ranges[i], wantClip[i])
		}
	}
}

// TestAnnexUnmappedTail checks a large annex read that runs off the mapped
// prefix fails with a precise got-of-want error instead of silently
// truncating or succeeding.
func TestAnnexUnmappedTail(t *testing.T) {
	sim, base := holeyTarget(t)
	const p = uint64(target.PageSize)

	srv, err := Serve("127.0.0.1:0", sim, WithPacketSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	buf := make([]byte, 3*p) // [base, base+3p): last page unmapped
	err = client.ReadMemory(base, buf)
	if err == nil {
		t.Fatal("read across unmapped tail succeeded")
	}
	if !strings.Contains(err.Error(), "unmapped tail") {
		t.Errorf("error = %v, want unmapped-tail report", err)
	}
}

// TestTextAnnexBounded checks a stub that never ends a text annex (an
// endless run of `m` chunks) fails the fetch instead of growing the client
// without limit.
func TestTextAnnexBounded(t *testing.T) {
	chunk := "m" + strings.Repeat("1000,1000;", 409)
	addr := fakeStub(t, func(payload string) *string {
		switch {
		case strings.HasPrefix(payload, "qSupported"):
			s := "PacketSize=1000;qXfer:memory-map:read+"
			return &s
		case payload == "?":
			s := "S05"
			return &s
		default:
			return &chunk
		}
	})
	client, err := Dial(addr, ctypes.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.fetchTextAnnex("memory-map", "")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless annex: err = %v, want the size bound", err)
	}
	if _, ok := client.ClipMapped(0x1000, 0x1000); ok {
		t.Error("ClipMapped answered from an unbounded memory map")
	}
}

// TestStubFindsCapabilitiesThroughWrappers checks a stub over a wrapped
// backing (a stats view of a kernel target) still advertises and serves the
// memory-map and dirty-ranges annexes that live below the wrapper.
func TestStubFindsCapabilitiesThroughWrappers(t *testing.T) {
	sim, base := holeyTarget(t)
	srv, err := Serve("127.0.0.1:0", target.WithStats(sim), WithPacketSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.hasMemMap || !client.hasDirty {
		t.Fatalf("qSupported over a wrapped backing: memory-map %v, dirty-ranges %v; want both",
			client.hasMemMap, client.hasDirty)
	}
	got, want := client.MemoryMap(), sim.MappedRanges()
	if len(got) != len(want) {
		t.Fatalf("map = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("map[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	_, mark, ok := client.DirtySince(^uint64(0))
	if !ok {
		t.Fatal("dirty-ranges not served over a wrapped backing")
	}
	sim.Mem.Write(base+8, []byte{1, 2, 3, 4})
	ranges, _, ok := client.DirtySince(mark)
	if !ok || len(ranges) == 0 || ranges[0].Addr > base+8 || ranges[0].End() < base+12 {
		t.Errorf("dirty ranges after a write = %v, %v; want one covering %#x", ranges, ok, base+8)
	}
}

// writeCounter wraps a client's connection and records each write.
type writeCounter struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *writeCounter) since(n int) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.writes[n:]...)
}

// TestAckRidesWithNextRequest checks the client acks each reply in the
// same write as its next request: after the handshake, one write per round
// trip, each starting "+$". A detach still delivers the ack of its reply.
func TestAckRidesWithNextRequest(t *testing.T) {
	const base = uint64(0x4200_0000)
	m := mem.New()
	want := make([]byte, 3*target.PageSize)
	for i := range want {
		want[i] = byte(i * 31)
	}
	m.Write(base, want)
	sim := target.NewSim(m, ctypes.NewRegistry())
	srv, err := Serve("127.0.0.1:0", sim, WithPacketSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: conn}
	client, err := newClient(wc, sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := wc.since(0); len(got) != 2 {
		t.Fatalf("handshake took %d writes %q, want 2 (qSupported, ?)", len(got), got)
	}

	mark := len(wc.since(0))
	st := client.Stats()
	_, _, txns0 := st.Totals()
	conts0 := st.Continuations.Load()
	var small [8]byte
	if err := client.ReadMemory(base, small[:]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := client.ReadMemory(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("annex read corrupted data")
	}
	_, _, txns1 := st.Totals()
	trips := int(txns1 - txns0 + st.Continuations.Load() - conts0)
	writes := wc.since(mark)
	if len(writes) != trips {
		t.Fatalf("%d round trips took %d writes, want one each", trips, len(writes))
	}
	for i, w := range writes {
		if !strings.HasPrefix(w, "+$") || !strings.HasSuffix(w[:len(w)-2], "#") {
			t.Fatalf("write %d = %.24q, want the previous ack and one request frame", i, w)
		}
	}

	mark = len(wc.since(0))
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wc.since(mark); len(got) != 2 || got[0] != "+$D#44" || got[1] != "+" {
		t.Fatalf("detach writes = %q, want [\"+$D#44\" \"+\"]", got)
	}
}
