package gdbrsp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"visualinux/internal/ctypes"
	"visualinux/internal/obs"
	"visualinux/internal/target"
)

// maxRetransmits bounds how often one packet is re-sent on NAK ('-') before
// the link is declared broken: a stub stuck NAK-ing would otherwise keep the
// client retransmitting forever.
const maxRetransmits = 8

// ackScanLimit bounds how many junk bytes the client tolerates while waiting
// for an ack: a stub streaming noise instead of '+'/'-' must not pin the
// client in the scan loop.
const ackScanLimit = 4096

// maxAnnexText bounds one plain-text annex blob: a stub that streams `m`
// chunks forever must not grow the client without limit.
const maxAnnexText = 16 << 20

// defaultTimeout is the per-round-trip I/O deadline. Slow links are slow per
// packet, not tens of seconds per packet.
const defaultTimeout = 10 * time.Second

// LinkError is a transport-level RSP failure: the link itself misbehaved
// (NAK storm, noise, timeout, broken socket) as opposed to the stub cleanly
// reporting an error reply. errors.Is/As through Err.
type LinkError struct {
	Op  string // "send", "ack", "recv"; "sync" once the client is desynchronized
	Err error
}

func (e *LinkError) Error() string { return fmt.Sprintf("gdbrsp: link %s: %v", e.Op, e.Err) }
func (e *LinkError) Unwrap() error { return e.Err }

// ErrNakLimit reports a stub that kept rejecting our packets.
var ErrNakLimit = errors.New("retransmit limit exceeded (stub keeps NAK-ing)")

// ErrAckNoise reports a stub that streamed garbage instead of an ack.
var ErrAckNoise = errors.New("no ack within noise budget")

// ErrDesync refuses every round trip after a link failure. RSP has no
// field that pairs a reply with its request, so once a round trip fails
// part way a late reply may still be on the line, and the next request
// would take it as its own answer. The caller must dial again.
var ErrDesync = errors.New("client out of sync after an earlier link failure; dial again")

// Client implements target.Target over an RSP connection: memory reads go
// over the wire as $m packets; types and symbols are provided locally,
// exactly as GDB gets them from vmlinux DWARF rather than from the stub.
//
// The client is shaped for slow, small-packet links. Reads larger than the
// stub's negotiated packet bound prefer the qXfer:memory:read annex when the
// stub advertises it: one memory transaction whose reply streams back in
// continuation chunks, each chunk a cheap follow-up rather than a fresh
// memory walk. Plain $m short replies (a stub serving less than asked —
// packet bound or mapped-prefix end) are treated as partial progress and
// resumed from the next byte, never a hard error. When the stub serves a
// memory-map annex, the client loads it on first use and answers ClipMapped
// locally, so batch prefetch passes can clip fills to mapped ranges without
// probing; a journal poll that names bytes outside the map marks it stale,
// so memory the kernel mapped since is cached like the rest.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	types   *ctypes.Registry
	symbols map[string]target.Symbol
	byAddr  map[uint64]string
	stats   target.Stats

	// packetMax is the stub's negotiated PacketSize (qSupported reply).
	// $m replies are hex-encoded, so one packet carries packetMax/2 bytes of
	// memory; larger reads use the annex, whose escaped binary chunks carry
	// up to packetMax-1 bytes each, or split at that bound.
	packetMax  int
	hasMemRead bool // stub advertises qXfer:memory:read+
	hasMemMap  bool // stub advertises qXfer:memory-map:read+
	hasMemHash bool // stub advertises qXfer:memory-hash:read+
	hasDirty   bool // stub advertises qXfer:dirty-ranges:read+

	timeout time.Duration
	// desync is set by the first failed round trip; every later one is
	// refused with ErrDesync.
	desync bool

	// Per-client packet buffers, reused under mu: the request payload, its
	// frame, and the reply payload (valid until the next round trip).
	req, frame, reply []byte

	// The memory-map annex, fetched on first use and again after a journal
	// poll names bytes outside it (the kernel mapped memory since).
	mapMu      sync.Mutex
	mapFetched bool           // an attempt was made for the current map
	memMap     []target.Range // sorted, merged; valid when mapOK
	mapOK      bool

	o *obs.Observer // optional: continuation accounting for /debug/metrics
}

// Dial connects to an RSP server and performs the initial handshake.
// reg and symbols play the role of the locally-loaded vmlinux.
func Dial(addr string, reg *ctypes.Registry, symbols []target.Symbol) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gdbrsp: dial: %w", err)
	}
	return newClient(conn, reg, symbols)
}

// newClient runs the handshake over an open connection; it closes conn on
// failure.
func newClient(conn net.Conn, reg *ctypes.Registry, symbols []target.Symbol) (*Client, error) {
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		types:   reg,
		symbols: make(map[string]target.Symbol, len(symbols)),
		byAddr:  make(map[uint64]string, len(symbols)),
		timeout: defaultTimeout,
	}
	for _, s := range symbols {
		c.symbols[s.Name] = s
		c.byAddr[s.Addr] = s.Name
	}
	// Handshake like GDB: feature negotiation then stop-reason query.
	features, err := c.roundTrip("qSupported:multiprocess+")
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.packetMax = parsePacketSize(features)
	c.hasMemRead = hasFeature(features, "qXfer:memory:read+")
	c.hasMemMap = hasFeature(features, "qXfer:memory-map:read+")
	c.hasMemHash = hasFeature(features, "qXfer:memory-hash:read+")
	c.hasDirty = hasFeature(features, "qXfer:dirty-ranges:read+")
	if _, err := c.roundTrip("?"); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Instrument mirrors the client's continuation accounting into the
// observer's shared counters (nil detaches).
func (c *Client) Instrument(o *obs.Observer) *Client {
	c.o = o
	return c
}

// SetTimeout adjusts the per-round-trip I/O deadline (0 disables).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// PacketSize returns the negotiated packet bound (payload bytes).
func (c *Client) PacketSize() int { return c.packetMax }

// Close detaches and closes the connection. The detach request carries the
// pending ack of the previous reply; the ack of the detach reply itself is
// flushed before the connection closes.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.roundTripLocked(append(c.req[:0], 'D')); err == nil {
		// The stub has already detached; losing its last ack costs nothing.
		_ = c.w.Flush()
	}
	return c.conn.Close()
}

// roundTrip sends one packet and reads the reply (with ack handling).
func (c *Client) roundTrip(payload string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = append(c.req[:0], payload...)
	reply, err := c.roundTripLocked(c.req)
	return string(reply), err
}

// roundTripLocked sends the request payload req and returns the reply
// payload, which aliases c.reply: it is valid until the next round trip.
// A failed round trip desynchronizes the client: it and every later one
// return a *LinkError, the later ones wrapping ErrDesync.
func (c *Client) roundTripLocked(req []byte) ([]byte, error) {
	if c.desync {
		return nil, &LinkError{Op: "sync", Err: ErrDesync}
	}
	reply, err := c.exchangeLocked(req)
	if err != nil {
		c.desync = true
	}
	return reply, err
}

// exchangeLocked runs one round trip on the wire. The '+' that acks the
// reply is buffered, not flushed: it leaves in the same write as the next
// request frame ("+$m...#cs"), so a round trip costs the client one write
// and the stub one wake-up. The byte stream is the same as flushing the
// ack on its own.
func (c *Client) exchangeLocked(req []byte) ([]byte, error) {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	c.frame = appendPacket(c.frame[:0], req)
	send := func() error {
		if _, err := c.w.Write(c.frame); err != nil {
			return err
		}
		return c.w.Flush()
	}
	if err := send(); err != nil {
		return nil, &LinkError{Op: "send", Err: err}
	}
	// Expect the stub's ack, then its reply packet, then ack it.
	retransmits, scanned := 0, 0
	for {
		b, err := c.r.ReadByte()
		if err != nil {
			return nil, &LinkError{Op: "ack", Err: err}
		}
		if b == '+' {
			break
		}
		if b == '-' {
			retransmits++
			if retransmits > maxRetransmits {
				return nil, &LinkError{Op: "ack", Err: ErrNakLimit}
			}
			if err := send(); err != nil {
				return nil, &LinkError{Op: "send", Err: err}
			}
			continue
		}
		scanned++
		if scanned > ackScanLimit {
			return nil, &LinkError{Op: "ack", Err: ErrAckNoise}
		}
	}
	reply, err := readPacket(c.r, c.reply, c.recvMax())
	if err != nil {
		return nil, &LinkError{Op: "recv", Err: err}
	}
	c.reply = reply
	if err := c.w.WriteByte('+'); err != nil {
		return nil, &LinkError{Op: "send", Err: err}
	}
	return reply, nil
}

// recvMax is the reply payload bound the client enforces: the negotiated
// PacketSize once known, our own buffer bound during the handshake.
func (c *Client) recvMax() int {
	if c.packetMax > 0 {
		return c.packetMax
	}
	return maxPacket
}

// parsePacketSize extracts PacketSize=<hex> from a qSupported reply,
// clamped to sane bounds: never above our own maxPacket buffer, never so
// small that an 8-byte scalar read would split.
func parsePacketSize(features string) int {
	const fallback = maxPacket
	for _, f := range strings.Split(features, ";") {
		if v, ok := strings.CutPrefix(f, "PacketSize="); ok {
			n, err := parseHexU64(v)
			if err != nil {
				return fallback
			}
			if n > maxPacket {
				return maxPacket
			}
			if n < 32 {
				return 32
			}
			return int(n)
		}
	}
	return fallback
}

// hasFeature reports whether a qSupported reply lists the given feature.
func hasFeature(features, want string) bool {
	for _, f := range strings.Split(features, ";") {
		if f == want {
			return true
		}
	}
	return false
}

// ReadMemory implements target.Target. Reads that fit one packet go as a
// single $m; larger reads prefer the qXfer:memory:read annex (one memory
// transaction, continuation-chunked reply) and otherwise resume over short
// $m replies. Reads counts logical requests; Transactions counts memory
// round trips; Continuations counts annex follow-up chunks (streamed from
// the stub's already-prepared reply, so they never re-pay the memory walk).
func (c *Client) ReadMemory(addr uint64, buf []byte) error {
	c.stats.Reads.Add(1)
	c.stats.BytesRead.Add(uint64(len(buf)))
	if len(buf) == 0 {
		return nil
	}
	if c.hasMemRead && len(buf) > c.packetMax/2 {
		return c.readAnnex(addr, buf)
	}
	return c.readM(addr, buf)
}

// readM reads via plain $m packets. A short reply is partial progress —
// stubs legitimately serve less than asked (packet bound, mapped-prefix
// end) — so the client resumes at the next unread byte. Only a reply with
// no progress at all, an error reply, or over-delivery is a failure.
func (c *Client) readM(addr uint64, buf []byte) error {
	chunk := c.packetMax / 2 // hex encoding: 2 reply chars per memory byte
	for off := 0; off < len(buf); {
		n := len(buf) - off
		if n > chunk {
			n = chunk
		}
		got, err := c.readMChunk(addr+uint64(off), buf[off:off+n])
		if err != nil {
			return err
		}
		off += got // short reply: resume from the next byte
	}
	return nil
}

// readMChunk sends one $m request for len(dst) bytes at addr and decodes
// the reply straight into dst, returning how many bytes the stub served.
func (c *Client) readMChunk(addr uint64, dst []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Transactions.Add(1)
	c.req = appendAddrLen(append(c.req[:0], 'm'), addr, uint64(len(dst)))
	reply, err := c.roundTripLocked(c.req)
	if err != nil {
		return 0, err
	}
	if len(reply) >= 1 && reply[0] == 'E' {
		return 0, errStub(reply, addr)
	}
	if len(reply) > 2*len(dst) {
		return 0, errOverDelivered(len(reply)/2, len(dst), addr)
	}
	n, err := decodeHex(dst, reply)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, errNoProgress("$m reply", addr)
	}
	return n, nil
}

// readAnnex reads via one qXfer:memory:read transaction whose reply streams
// back in m/l continuation chunks. An `l` chunk ending before the full
// length means the rest of the range is unreadable (mapped prefix ended):
// the error reports how far the stub got, so callers can degrade precisely.
func (c *Client) readAnnex(addr uint64, buf []byte) error {
	c.stats.Transactions.Add(1)
	length := uint64(len(buf))
	for off := uint64(0); off < length; {
		if off > 0 {
			c.stats.Continuations.Add(1)
			if c.o != nil {
				c.o.LinkContinuations.Inc()
			}
		}
		n, last, err := c.readAnnexChunk(addr, buf, off)
		if err != nil {
			return err
		}
		off += uint64(n)
		if last {
			if off < length {
				return errUnmappedTail(off, length, addr)
			}
			return nil
		}
		if n == 0 {
			return errNoProgress("qXfer chunk", addr+off)
		}
	}
	return nil
}

// readAnnexChunk requests the window of the object [addr, addr+len(buf))
// starting at off and unescapes the binary reply straight into buf[off:].
// last reports an `l` (object ends) chunk.
func (c *Client) readAnnexChunk(addr uint64, buf []byte, off uint64) (n int, last bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	length := uint64(len(buf))
	c.req = append(c.req[:0], "qXfer:memory:read:"...)
	c.req = appendAddrLen(c.req, addr, length)
	c.req = appendAddrLen(append(c.req, ':'), off, length-off)
	reply, err := c.roundTripLocked(c.req)
	if err != nil {
		return 0, false, err
	}
	if len(reply) >= 1 && reply[0] == 'E' {
		return 0, false, errStub(reply, addr+off)
	}
	if len(reply) == 0 || (reply[0] != 'm' && reply[0] != 'l') {
		return 0, false, errMalformed("qXfer", reply, addr+off)
	}
	dst := buf[off:]
	n, err = unescape(dst, reply[1:])
	if err != nil {
		return 0, false, errMalformed("qXfer", reply, addr+off)
	}
	if n > len(dst) {
		return 0, false, errOverDelivered(n, len(dst), addr+off)
	}
	return n, reply[0] == 'l', nil
}

// The read paths' error constructors, kept out of the per-chunk functions.

func errStub(reply []byte, addr uint64) error {
	return fmt.Errorf("gdbrsp: stub error %s reading %#x", reply, addr)
}

func errOverDelivered(got, want int, addr uint64) error {
	return fmt.Errorf("gdbrsp: stub over-delivered %d of %d at %#x", got, want, addr)
}

func errNoProgress(what string, addr uint64) error {
	return fmt.Errorf("gdbrsp: empty %s at %#x (no progress)", what, addr)
}

func errMalformed(what string, reply []byte, addr uint64) error {
	return fmt.Errorf("gdbrsp: malformed %s reply %.16q at %#x", what, reply, addr)
}

func errUnmappedTail(got, want, addr uint64) error {
	return fmt.Errorf("gdbrsp: object ends after %d of %d bytes at %#x (unmapped tail)", got, want, addr)
}

// ClipMapped implements target.RangeProber from the stub's memory-map
// annex. The map is fetched on first use (metadata, like symbols) and
// intersected locally, so batch prefetch passes clip for free; it is fetched
// again only after DirtySince saw a write outside it. Without the annex, ok
// is false and callers treat everything as potentially mapped.
func (c *Client) ClipMapped(addr, size uint64) ([]target.Range, bool) {
	memMap, ok := c.loadMemMap()
	if !ok {
		return nil, false
	}
	if size == 0 {
		return nil, true
	}
	if addr+size < addr {
		size = -addr
	}
	end := addr + size
	var out []target.Range
	i := sort.Search(len(memMap), func(i int) bool { return memMap[i].End() > addr })
	for ; i < len(memMap) && memMap[i].Addr < end; i++ {
		lo, hi := memMap[i].Addr, memMap[i].End()
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			out = append(out, target.Range{Addr: lo, Size: hi - lo})
		}
	}
	return out, true
}

// MemoryMap returns the stub's merged mapped ranges (nil without the
// annex), fetching them when no current copy is held.
func (c *Client) MemoryMap() []target.Range {
	memMap, _ := c.loadMemMap()
	return memMap
}

// loadMemMap returns the current memory map, fetching the annex when the
// held copy is missing or stale. ok is false without a usable map. A failed
// fetch is not retried until the map is marked stale again.
func (c *Client) loadMemMap() ([]target.Range, bool) {
	if !c.hasMemMap {
		return nil, false
	}
	c.mapMu.Lock()
	defer c.mapMu.Unlock()
	if !c.mapFetched {
		c.mapFetched = true
		c.memMap, c.mapOK = nil, false
		if blob, err := c.fetchTextAnnex("memory-map", ""); err == nil {
			if ranges, err := parseMemMap(blob); err == nil {
				c.memMap, c.mapOK = target.MergeRanges(ranges), true
			}
		}
	}
	return c.memMap, c.mapOK
}

// noteWrites marks the held memory map stale when a journaled write falls
// outside it: the kernel mapped memory after the map was fetched, and fills
// clipped against the old map would skip it.
func (c *Client) noteWrites(writes []target.Range) {
	c.mapMu.Lock()
	defer c.mapMu.Unlock()
	if !c.mapOK {
		return
	}
	for _, w := range writes {
		if !covers(c.memMap, w) {
			c.mapFetched = false
			return
		}
	}
}

// covers reports whether the sorted, merged ranges hold all of r.
// Inclusive last addresses keep a range that ends at the top of the
// address space from wrapping.
func covers(ranges []target.Range, r target.Range) bool {
	last := func(r target.Range) uint64 { return r.Addr + r.Size - 1 }
	i := sort.Search(len(ranges), func(i int) bool { return last(ranges[i]) >= r.Addr })
	return i < len(ranges) && ranges[i].Addr <= r.Addr && last(r) <= last(ranges[i])
}

// fetchTextAnnex pulls one plain-text annex blob (qXfer:<annex>:read:<arg>)
// over m/l continuation chunks, unescaped like every qXfer reply, with the
// usual accounting: one transaction for the sequence, continuations for the
// follow-up chunks.
func (c *Client) fetchTextAnnex(annex, arg string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var blob []byte
	c.stats.Transactions.Add(1)
	for off := uint64(0); ; {
		if off > 0 {
			c.stats.Continuations.Add(1)
			if c.o != nil {
				c.o.LinkContinuations.Inc()
			}
		}
		c.req = append(c.req[:0], "qXfer:"...)
		c.req = append(c.req, annex...)
		c.req = append(c.req, ":read:"...)
		c.req = append(c.req, arg...)
		c.req = appendAddrLen(append(c.req, ':'), off, uint64(c.packetMax))
		reply, err := c.roundTripLocked(c.req)
		if err != nil {
			return "", err
		}
		if len(reply) >= 1 && reply[0] == 'E' {
			return "", fmt.Errorf("gdbrsp: stub error %s on qXfer:%s", reply, annex)
		}
		if len(reply) == 0 || (reply[0] != 'm' && reply[0] != 'l') {
			return "", fmt.Errorf("gdbrsp: malformed qXfer:%s reply %.16q", annex, reply)
		}
		start := len(blob)
		blob = slices.Grow(blob, len(reply)-1)[:start+len(reply)-1]
		n, err := unescape(blob[start:], reply[1:])
		if err != nil {
			return "", fmt.Errorf("gdbrsp: malformed qXfer:%s reply: %w", annex, err)
		}
		blob = blob[:start+n]
		off += uint64(n)
		if reply[0] == 'l' {
			break
		}
		if n == 0 {
			return "", fmt.Errorf("gdbrsp: empty qXfer:%s chunk (no progress)", annex)
		}
		if len(blob) > maxAnnexText {
			return "", fmt.Errorf("gdbrsp: qXfer:%s exceeds %d bytes", annex, maxAnnexText)
		}
	}
	return string(blob), nil
}

// HashBlocks implements target.PageHasher over the qXfer:memory-hash:read
// annex: SubPage-granular content hashes the stub computes against its own
// memory. A handful of continuation chunks replaces refetching whole pages —
// the cheap revalidation exchange of the incremental read path. ok=false
// without the annex (callers fall back to refetching).
func (c *Client) HashBlocks(addr, size uint64) ([]uint64, bool) {
	if !c.hasMemHash || size == 0 || addr%target.SubPage != 0 || size%target.SubPage != 0 {
		return nil, false
	}
	blob, err := c.fetchTextAnnex("memory-hash", string(appendAddrLen(nil, addr, size)))
	if err != nil {
		return nil, false
	}
	want := int(size / target.SubPage)
	if len(blob) != want*16 {
		return nil, false
	}
	hashes := make([]uint64, want)
	for i := range hashes {
		v, err := parseHexU64(blob[i*16 : i*16+16])
		if err != nil {
			return nil, false
		}
		hashes[i] = v
	}
	c.stats.HashChecks.Add(1)
	return hashes, true
}

// DirtySince implements target.DirtyTracker over the qXfer:dirty-ranges:read
// annex: the stub's write journal since mark, as "NEXT;addr,size;...". An
// error reply (history lost past mark) or a stub without the annex yields
// ok=false, and the snapshot gracefully degrades to hash revalidation.
func (c *Client) DirtySince(mark uint64) ([]target.Range, uint64, bool) {
	if !c.hasDirty {
		return nil, 0, false
	}
	blob, err := c.fetchTextAnnex("dirty-ranges", strconv.FormatUint(mark, 16))
	if err != nil {
		return nil, 0, false
	}
	parts := strings.Split(blob, ";")
	next, err := parseHexU64(parts[0])
	if err != nil {
		return nil, 0, false
	}
	var out []target.Range
	for _, p := range parts[1:] {
		if p == "" {
			continue
		}
		a, sz, err := splitAddrLen(p)
		if err != nil {
			return nil, 0, false
		}
		out = append(out, target.Range{Addr: a, Size: sz})
	}
	c.stats.HashChecks.Add(1)
	out = target.MergeRanges(out)
	c.noteWrites(out)
	return out, next, true
}

// parseMemMap parses "addr,size;addr,size;...;" into sorted ranges.
func parseMemMap(s string) ([]target.Range, error) {
	var out []target.Range
	for _, part := range strings.Split(s, ";") {
		if part == "" {
			continue
		}
		addr, size, err := splitAddrLen(part)
		if err != nil {
			return nil, err
		}
		out = append(out, target.Range{Addr: addr, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// LookupSymbol implements target.Target from the locally-loaded table.
func (c *Client) LookupSymbol(name string) (target.Symbol, bool) {
	s, ok := c.symbols[name]
	return s, ok
}

// SymbolAt implements target.Target.
func (c *Client) SymbolAt(addr uint64) (string, bool) {
	n, ok := c.byAddr[addr]
	return n, ok
}

// Types implements target.Target.
func (c *Client) Types() *ctypes.Registry { return c.types }

// Stats implements target.Target.
func (c *Client) Stats() *target.Stats { return &c.stats }

var (
	_ target.Target       = (*Client)(nil)
	_ target.RangeProber  = (*Client)(nil)
	_ target.PageHasher   = (*Client)(nil)
	_ target.DirtyTracker = (*Client)(nil)
)
