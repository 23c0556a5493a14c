package gdbrsp

import (
	"bytes"
	"testing"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

func TestParsePacketSize(t *testing.T) {
	cases := []struct {
		reply string
		want  int
	}{
		{"PacketSize=1000;qXfer:features:read-", 0x1000},
		{"qXfer:features:read-;PacketSize=800", 0x800},
		{"PacketSize=ffffffff", maxPacket}, // stub brags; clamp to our buffer
		{"PacketSize=4", 32},               // too small to carry a scalar
		{"PacketSize=zz", maxPacket},       // unparseable -> default
		{"multiprocess+", maxPacket},       // absent -> default
		{"", maxPacket},
	}
	for _, c := range cases {
		if got := parsePacketSize(c.reply); got != c.want {
			t.Errorf("parsePacketSize(%q) = %#x, want %#x", c.reply, got, c.want)
		}
	}
}

// TestSplitLargeRead drives a 3-page read through a loopback server and
// checks (a) the bytes survive, (b) with the qXfer:memory:read annex the
// whole read is one memory transaction whose reply streams back in
// continuation chunks — not one transaction per packet.
func TestSplitLargeRead(t *testing.T) {
	const base = uint64(0x4000_0000)
	const size = 3 * 4096 // > maxPacket/2, needs several reply packets

	m := mem.New()
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + i>>8)
	}
	m.Write(base, want)
	sim := target.NewSim(m, ctypes.NewRegistry())

	srv, err := Serve("127.0.0.1:0", sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.hasMemRead {
		t.Fatal("server should advertise qXfer:memory:read+")
	}

	got := make([]byte, size)
	if err := client.ReadMemory(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("split read corrupted data")
	}

	reads, bytesRead, txns := client.Stats().Totals()
	if reads != 1 {
		t.Errorf("logical reads = %d, want 1", reads)
	}
	if bytesRead != size {
		t.Errorf("bytes = %d, want %d", bytesRead, size)
	}
	if txns != 1 {
		t.Errorf("transactions = %d, want 1 (annex opens one transfer)", txns)
	}
	conts := client.Stats().Continuations.Load()
	wantConts := uint64(binaryChunks(want, int(srv.chunkBytes()))) - 1
	if conts != wantConts {
		t.Errorf("continuations = %d, want %d (follow-up chunks)", conts, wantConts)
	}
}

// binaryChunks counts the continuation chunks that carry data when each
// chunk holds at most budget payload bytes and '#', '$', '}' and '*' take
// two bytes each, an escape pair never split across chunks.
func binaryChunks(data []byte, budget int) int {
	chunks := 0
	for off := 0; off < len(data); chunks++ {
		for room := budget; off < len(data); off++ {
			cost := 1
			if bytes.IndexByte([]byte("#$}*"), data[off]) >= 0 {
				cost = 2
			}
			if cost > room {
				break
			}
			room -= cost
		}
	}
	return chunks
}

// TestShortReadResumption forces the plain-$m path (no annex) and checks
// the client treats short replies as partial progress, resuming from the
// next byte instead of erroring — the standards-correct reading of a stub
// that serves less than asked.
func TestShortReadResumption(t *testing.T) {
	const base = uint64(0x4100_0000)
	const size = 3 * 4096

	m := mem.New()
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*13 + 5)
	}
	m.Write(base, want)
	sim := target.NewSim(m, ctypes.NewRegistry())

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
	client.hasMemRead = false // pretend the stub lacks the annex
	// Make the client request more per $m than the stub's 512-byte bound
	// allows, so every reply comes back short and must be resumed.
	client.packetMax = maxPacket

	got := make([]byte, size)
	if err := client.ReadMemory(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed read corrupted data")
	}
	_, _, txns := client.Stats().Totals()
	wantTxns := uint64((size + 512/2 - 1) / (512 / 2))
	if txns != wantTxns {
		t.Errorf("transactions = %d, want %d (one short reply resumed per packet)", txns, wantTxns)
	}
}

// TestNegotiatedChunkRoundTrip checks that a read of exactly the negotiated
// per-packet capacity goes over in a single transaction.
func TestNegotiatedChunkRoundTrip(t *testing.T) {
	const base = uint64(0x5000_0000)
	m := mem.New()
	data := make([]byte, maxPacket/2)
	for i := range data {
		data[i] = byte(i)
	}
	m.Write(base, data)
	sim := target.NewSim(m, ctypes.NewRegistry())

	srv, err := Serve("127.0.0.1:0", sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), sim.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got := make([]byte, len(data))
	if err := client.ReadMemory(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full-packet read corrupted data")
	}
	if _, _, txns := client.Stats().Totals(); txns != 1 {
		t.Errorf("transactions = %d, want 1 for a packet-sized read", txns)
	}
}
