package gdbrsp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

// The fmt-based encoders the codec replaced, kept as its oracle.

func encodePacketFmt(payload string) []byte {
	return []byte(fmt.Sprintf("$%s#%02x", payload, checksum([]byte(payload))))
}

func hexEncodeFmt(data []byte) string {
	var sb strings.Builder
	for _, b := range data {
		sb.WriteString(fmt.Sprintf("%02x", b))
	}
	return sb.String()
}

func memMapFmt(ranges []target.Range) string {
	var sb strings.Builder
	for _, r := range ranges {
		sb.WriteString(fmt.Sprintf("%x,%x;", r.Addr, r.Size))
	}
	return sb.String()
}

func hashesFmt(hashes []uint64) string {
	var sb strings.Builder
	for _, h := range hashes {
		sb.WriteString(fmt.Sprintf("%016x", h))
	}
	return sb.String()
}

func dirtyFmt(next uint64, ranges []target.Range) string {
	s := fmt.Sprintf("%x", next)
	for _, r := range ranges {
		s += fmt.Sprintf(";%x,%x", r.Addr, r.Size)
	}
	return s
}

// randUint64 draws from the whole range, weighted toward small numbers and
// the extremes where padding and digit counts change.
func randUint64(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(17))
	case 1:
		return ^uint64(0) - uint64(rng.Intn(3))
	default:
		return rng.Uint64() >> uint(rng.Intn(64))
	}
}

func randRanges(rng *rand.Rand) []target.Range {
	out := make([]target.Range, rng.Intn(6))
	for i := range out {
		out[i] = target.Range{Addr: randUint64(rng), Size: randUint64(rng)}
	}
	return out
}

// TestCodecMatchesFmt requires the codec to put exactly the bytes the fmt
// encoders did on the wire: framing, memory hex, and every annex blob.
func TestCodecMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 255, 256, 511, 4096}
	for i := 0; i < 200; i++ {
		sizes = append(sizes, rng.Intn(4097))
	}
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		// Frames carry printable payloads in practice; any byte but '#'
		// must frame identically.
		payload := bytes.ReplaceAll(data, []byte{'#'}, []byte{'x'})
		if got, want := appendPacket(nil, payload), encodePacketFmt(string(payload)); !bytes.Equal(got, want) {
			t.Fatalf("appendPacket(%d bytes) = %.40q, fmt oracle %.40q", n, got, want)
		}
		hexed := hexEncodeFmt(data)
		if got := hex.AppendEncode(nil, data); string(got) != hexed {
			t.Fatalf("hex of %d bytes = %.40q, fmt oracle %.40q", n, got, hexed)
		}
		// decodeHex accepts either case and inverts the encoding.
		back := make([]byte, n)
		for _, src := range []string{hexed, strings.ToUpper(hexed)} {
			m, err := decodeHex(back, []byte(src))
			if err != nil || m != n || !bytes.Equal(back, data) {
				t.Fatalf("decodeHex(%d bytes) = %d, %v", n, m, err)
			}
		}
	}
	for i := 0; i < 500; i++ {
		ranges := randRanges(rng)
		if got, want := string(appendMemMap(nil, ranges)), memMapFmt(ranges); got != want {
			t.Fatalf("memory map %v = %q, fmt oracle %q", ranges, got, want)
		}
		next := randUint64(rng)
		if got, want := string(appendDirty(nil, next, ranges)), dirtyFmt(next, ranges); got != want {
			t.Fatalf("dirty ranges %v = %q, fmt oracle %q", ranges, got, want)
		}
		hashes := make([]uint64, rng.Intn(5))
		for j := range hashes {
			hashes[j] = randUint64(rng)
		}
		if got, want := string(appendHashes(nil, hashes)), hashesFmt(hashes); got != want {
			t.Fatalf("hashes %x = %q, fmt oracle %q", hashes, got, want)
		}
		a, l := randUint64(rng), randUint64(rng)
		if got, want := string(appendAddrLen(nil, a, l)), fmt.Sprintf("%x,%x", a, l); got != want {
			t.Fatalf("addr,len = %q, fmt oracle %q", got, want)
		}
	}
	for code := 0; code < 256; code++ {
		if got, want := string(appendError(nil, byte(code))), fmt.Sprintf("E%02x", code); got != want {
			t.Fatalf("error reply = %q, fmt oracle %q", got, want)
		}
	}
	for _, odd := range []string{"a", "abc", "0123456"} {
		if _, err := decodeHex(make([]byte, 4), []byte(odd)); err == nil || !strings.Contains(err.Error(), "odd hex length") {
			t.Errorf("decodeHex(%q) = %v, want odd-length error", odd, err)
		}
	}
	if _, err := decodeHex(make([]byte, 2), []byte("0g")); err == nil {
		t.Error("decodeHex accepted a non-hex digit")
	}
}

// TestBinaryEscapes checks the binary-data codec on every byte value: the
// escaped form never holds a bare '#', '$' or '*', an escape pair never
// straddles the budget, and unescape inverts it, counting but not writing
// what overruns dst and rejecting a lone trailing '}'.
func TestBinaryEscapes(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	enc, n := appendEscaped(nil, all, len(all)*2)
	if n != len(all) || len(enc) != len(all)+4 {
		t.Fatalf("escaped 256 values: carried %d, %d bytes, want 256, 260", n, len(enc))
	}
	for i := 0; i < len(enc); i++ {
		switch enc[i] {
		case '#', '$', '*':
			t.Fatalf("bare %q at %d of the escaped form", enc[i], i)
		case '}':
			i++ // the escaped byte may be anything
		}
	}
	back := make([]byte, len(all))
	if m, err := unescape(back, enc); err != nil || m != len(all) || !bytes.Equal(back, all) {
		t.Fatalf("unescape = %d, %v", m, err)
	}
	// Budget: "ab" fits in 3, the pair for '#' would need 4.
	if enc, n := appendEscaped(nil, []byte("ab#c"), 3); n != 2 || string(enc) != "ab" {
		t.Errorf("straddling pair: %q carrying %d, want \"ab\" carrying 2", enc, n)
	}
	if enc, n := appendEscaped(nil, []byte("ab#c"), 4); n != 3 || string(enc) != "ab}\x03" {
		t.Errorf("fitting pair: %q carrying %d", enc, n)
	}
	short := make([]byte, 2)
	if m, err := unescape(short, []byte("x}]yz")); err != nil || m != 4 || string(short) != "x}" {
		t.Errorf("overrun: %d %q, %v; want 4 \"x}\"", m, short, err)
	}
	if _, err := unescape(make([]byte, 8), []byte("ab}")); err != errLoneEscape {
		t.Errorf("lone '}': err = %v", err)
	}
}

// TestBinaryChunksAllBytes serves every byte value through the
// qXfer:memory:read annex at the smallest packet size and reads it back
// intact. The object opens with an escapable byte placed so that its pair
// would straddle the chunk budget: that chunk stops before it and is `m`.
// The object ends at a mapping edge, so a longer read ends in `l` there.
func TestBinaryChunksAllBytes(t *testing.T) {
	data := bytes.Repeat([]byte{'a'}, minPacket-2) // one byte short of the budget
	data = append(data, '#')
	for i := 0; i < 256; i++ {
		data = append(data, byte(i))
	}
	for i := 255; i >= 0; i-- {
		data = append(data, byte(i))
	}
	data = append(data, bytes.Repeat([]byte("}*$#"), 40)...)
	base := uint64(0x4300_0000) + target.PageSize - uint64(len(data))
	m := mem.New()
	m.Write(base, data)
	sim := target.NewSim(m, ctypes.NewRegistry())
	srv, err := Serve("127.0.0.1:0", sim, WithPacketSize(minPacket))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &stubConn{s: srv}
	req := appendAddrLen(append(appendAddrLen([]byte("qXfer:memory:read:"), base, uint64(len(data))), ':'), 0, uint64(len(data)))
	if reply, _ := c.dispatch(nil, req); string(reply) != "m"+strings.Repeat("a", minPacket-2) {
		t.Fatalf("first chunk = %q, want m and the %d bytes before the pair", reply, minPacket-2)
	}

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
		t.Fatalf("read back %q\nwant %q", got, data)
	}
	if conts, want := client.Stats().Continuations.Load(), uint64(binaryChunks(data, minPacket-1)-1); conts != want {
		t.Errorf("continuations = %d, want %d", conts, want)
	}
	err = client.ReadMemory(base, make([]byte, len(data)+100))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("after %d of %d bytes", len(data), len(data)+100)) {
		t.Errorf("read past the mapping: err = %v, want the unmapped tail after %d bytes", err, len(data))
	}
}

// TestReadPacketStream checks the reader skips acks, interrupts and noise
// between frames, enforces the size bound and reports bad checksums.
func TestReadPacketStream(t *testing.T) {
	stream := "+-\x03junk$OK#9a+$m1000,8#92"
	r := bufio.NewReader(strings.NewReader(stream))
	for _, want := range []string{"OK", "m1000,8"} {
		got, err := readPacket(r, nil, maxPacket)
		if err != nil || string(got) != want {
			t.Fatalf("readPacket = %q, %v; want %q", got, err, want)
		}
	}
	r = bufio.NewReader(strings.NewReader("$OK#00"))
	if _, err := readPacket(r, nil, maxPacket); err != errChecksum {
		t.Errorf("bad checksum: err = %v", err)
	}
	r = bufio.NewReader(strings.NewReader("$OK#zz"))
	if _, err := readPacket(r, nil, maxPacket); err == nil || !strings.Contains(err.Error(), "bad hex number") {
		t.Errorf("bad checksum digits: err = %v", err)
	}
	// A frame longer than bufio's buffer crosses several ReadSlice calls.
	big := bytes.Repeat([]byte("ab"), 3000)
	frame := appendPacket(nil, big)
	r = bufio.NewReaderSize(bytes.NewReader(frame), 16)
	if got, err := readPacket(r, nil, len(big)); err != nil || !bytes.Equal(got, big) {
		t.Errorf("long frame: %d bytes, %v", len(got), err)
	}
	r = bufio.NewReaderSize(bytes.NewReader(frame), 16)
	if _, err := readPacket(r, nil, len(big)-1); err == nil || !strings.Contains(err.Error(), "exceeds negotiated size") {
		t.Errorf("oversize frame: err = %v", err)
	}
}

// FuzzReadPacket feeds arbitrary byte streams to the reader: it must never
// panic or return a payload over the bound, and every payload it frames
// itself must come back intact.
func FuzzReadPacket(f *testing.F) {
	f.Add([]byte("+$qSupported:multiprocess+#c6"), uint16(4096))
	f.Add([]byte("$m1000,8#92$OK#9a"), uint16(64))
	f.Add([]byte("\x03-+noise$l0102#ff"), uint16(512))
	f.Add([]byte("$"+strings.Repeat("q", 600)+"#00"), uint16(512))
	f.Fuzz(func(t *testing.T, data []byte, max16 uint16) {
		max := int(max16)%maxPacket + 1
		r := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var buf []byte
		for {
			p, err := readPacket(r, buf, max)
			if err != nil {
				break
			}
			if len(p) > max {
				t.Fatalf("payload of %d bytes over bound %d", len(p), max)
			}
			buf = p
		}
		payload := bytes.ReplaceAll(data, []byte{'#'}, nil)
		if len(payload) > max {
			payload = payload[:max]
		}
		r = bufio.NewReader(bytes.NewReader(appendPacket([]byte("+\x03"), payload)))
		got, err := readPacket(r, nil, max)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %q = %q, %v", payload, got, err)
		}
	})
}

// FuzzParseMemMap checks the client's memory-map parser never panics and
// reads back every map the stub serializes.
func FuzzParseMemMap(f *testing.F) {
	f.Add("1000,1000;3000,2000;")
	f.Add("ffff888000000000,200000;;")
	f.Add("1000")
	f.Add(",;,")
	f.Fuzz(func(t *testing.T, s string) {
		ranges, err := parseMemMap(s)
		if err != nil {
			return
		}
		back, err := parseMemMap(string(appendMemMap(nil, ranges)))
		if err != nil || len(back) != len(ranges) {
			t.Fatalf("re-parse of %v = %v, %v", ranges, back, err)
		}
		for i := range back {
			if back[i] != ranges[i] {
				t.Fatalf("re-parse of %v = %v", ranges, back)
			}
		}
	})
}

// FuzzClientReplies serves arbitrary reply payloads to every client read
// path through fakeStub. The client must never panic, never report a read
// it did not fill, and never loop on a stub that stops making sense.
func FuzzClientReplies(f *testing.F) {
	f.Add([]byte("l0102030405060708"), []byte("E01"))
	f.Add([]byte("m"+strings.Repeat("ab", 99)), []byte("l"))
	f.Add([]byte("1000,1000;"), []byte("0123456789abcdef"))
	f.Add([]byte("5;1000,100"), []byte("mzz"))
	f.Add([]byte("0102"), []byte(strings.Repeat("A", 300)))
	// Binary qXfer chunks (the 300-byte read takes second, then first):
	// escaped bytes; a trailing lone '}'; a last chunk that fits the 101
	// bytes left as hex would (152 chars) but over-delivers once unescaped.
	f.Add([]byte("l}\x03}\x04}]}\x0a"+strings.Repeat("\x00", 96)), []byte("m}]"+strings.Repeat("\xff", 197)))
	f.Add([]byte("m0102}"), []byte("l}"))
	f.Add([]byte("l}]"+strings.Repeat("x", 150)), []byte("m"+strings.Repeat("x", 199)))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		// A short script, then errors: every read path ends on an E reply,
		// so a stub that streams forever is out of scope here
		// (TestTextAnnexBounded covers it). Framing bytes are dropped: a
		// stub that breaks framing is FuzzReadPacket's input, and here it
		// would only leave the client waiting out its deadline.
		unframe := func(b []byte) string { return strings.NewReplacer("#", "", "$", "").Replace(string(b)) }
		script := []string{unframe(first), unframe(second), unframe(first)}
		i := 0
		addr := fakeStub(t, func(payload string) *string {
			var s string
			switch {
			case strings.HasPrefix(payload, "qSupported"):
				s = "PacketSize=c8;qXfer:memory:read+;qXfer:memory-map:read+;qXfer:memory-hash:read+;qXfer:dirty-ranges:read+"
			case payload == "?":
				s = "S05"
			case i < len(script):
				s = script[i]
				i++
			default:
				s = "E01"
			}
			return &s
		})
		client, err := Dial(addr, ctypes.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		// An oversize reply desynchronizes the link; fail fast, not in 10 s.
		client.SetTimeout(200 * time.Millisecond)
		for _, n := range []int{8, 300} { // $m, then the qXfer:memory:read annex
			buf := make([]byte, n)
			_ = client.ReadMemory(0x1000, buf)
		}
		_, _ = client.ClipMapped(0x1000, 0x1000)
		if h, ok := client.HashBlocks(0x1000, 2*target.SubPage); ok && len(h) != 2 {
			t.Fatalf("HashBlocks returned %d hashes for 2 blocks", len(h))
		}
		_, _, _ = client.DirtySince(^uint64(0))
	})
}

// chunkPair serves a small sim over loopback at PacketSize 512 and dials
// it: the shape of one kgdb_attach link.
func chunkPair(tb testing.TB) (*Client, uint64) {
	tb.Helper()
	m := mem.New()
	base := uint64(0x7000_0000)
	page := make([]byte, target.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	m.Write(base, page)
	srv, err := Serve("127.0.0.1:0", target.NewSim(m, ctypes.NewRegistry()), WithPacketSize(512))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), ctypes.NewRegistry(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close() })
	return client, base
}

// rspChunkBytes is one full qXfer:memory:read reply at PacketSize 512:
// 512-1 escape-free memory bytes behind the m/l marker. chunkPair's
// pattern takes every byte value, so the escapes in this window spill its
// last bytes into a short second chunk.
const rspChunkBytes = 512 - 1

// BenchmarkRSPChunk measures one 511-byte qXfer:memory:read window end to
// end over loopback: request formatting, framing, the stub's memory read
// and escaped binary reply, and the client's unescape.
func BenchmarkRSPChunk(b *testing.B) {
	client, base := chunkPair(b)
	buf := make([]byte, rspChunkBytes)
	b.ReportAllocs()
	b.SetBytes(rspChunkBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.readAnnex(base, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// maxChunkAllocs bounds the allocations of one chunk window's round trips,
// both halves together: the stub parses the request bytes in place and
// both ends reuse their packet buffers. A per-packet request string costs
// one more, a per-byte Sprintf hundreds.
const maxChunkAllocs = 0

// TestRSPChunkAllocs pins the allocation cost of the per-chunk path: the
// stub's reply builder on its own, and one chunk end to end.
func TestRSPChunkAllocs(t *testing.T) {
	client, base := chunkPair(t)
	buf := make([]byte, rspChunkBytes)
	if err := client.readAnnex(base, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if buf[i] != byte(i*7) {
			t.Fatalf("byte %d = %#x, want %#x", i, buf[i], byte(i*7))
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := client.readAnnex(base, buf); err != nil {
			t.Fatal(err)
		}
	}); n > maxChunkAllocs {
		t.Errorf("one chunk end to end: %.1f allocs, ceiling %d", n, maxChunkAllocs)
	}

	m := mem.New()
	m.Write(base, make([]byte, target.PageSize))
	c := &stubConn{s: &Server{backing: target.NewSim(m, ctypes.NewRegistry()), packetMax: 512}}
	req := appendAddrLen(append(appendAddrLen([]byte("qXfer:memory:read:"), base, 4*rspChunkBytes), ':'), rspChunkBytes, 3*rspChunkBytes)
	serve := func() {
		reply, _ := c.dispatch(c.reply[:0], req)
		c.reply = reply
		c.out = appendPacket(append(c.out[:0], '+'), reply)
	}
	serve()
	if want := 1 + rspChunkBytes; len(c.reply) != want || c.reply[0] != 'm' {
		t.Fatalf("stub reply = %d bytes %.8q, want an m chunk of %d", len(c.reply), c.reply, want)
	}
	if n := testing.AllocsPerRun(100, serve); n != 0 {
		t.Errorf("stub reply path: %.1f allocs, want 0", n)
	}
}
