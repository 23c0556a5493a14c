package gdbrsp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"visualinux/internal/target"
)

// minPacket is the smallest PacketSize the server will run with: enough for
// one qXfer command frame and at least a few bytes of reply.
const minPacket = 64

// Server speaks the gdbstub side of RSP, serving memory reads from a
// backing target (the simulated kernel). It is the QEMU-gdbstub stand-in.
//
// The server is built for slow, small-packet links: arbitrarily large reads
// are served over a small negotiated PacketSize via continuation — the
// qXfer:memory:read annex answers in `m`/`l` chunked replies of escaped
// binary, up to PacketSize-1 memory bytes each — and a plain
// `$m` request that exceeds the packet bound gets a standards-correct short
// reply (the longest prefix that fits), which the client resumes from the
// next byte. When the backing target knows its memory map, the server also
// serves a qXfer:memory-map:read annex so clients can clip batch fills to
// mapped ranges without probing.
type Server struct {
	backing   target.Target
	ln        net.Listener
	packetMax int
	// noDirty / noHash suppress advertising the dirty-ranges and memory-hash
	// annexes even when the backing could serve them — modeling older stubs,
	// and letting tests pin the hash-fallback and refetch-fallback paths.
	noDirty bool
	noHash  bool

	mu     sync.Mutex
	closed bool
}

// ServerOption configures a Server before it starts listening.
type ServerOption func(*Server)

// WithPacketSize sets the advertised PacketSize (payload bytes), clamped to
// [minPacket, maxPacket]. Small sizes model constrained stubs (KGDB over
// serial advertises far less than QEMU's gdbstub).
func WithPacketSize(n int) ServerOption {
	return func(s *Server) {
		if n < minPacket {
			n = minPacket
		}
		if n > maxPacket {
			n = maxPacket
		}
		s.packetMax = n
	}
}

// WithoutDirtyAnnex disables the qXfer:dirty-ranges:read annex, modeling a
// stub without a write journal; clients degrade to hash revalidation.
func WithoutDirtyAnnex() ServerOption {
	return func(s *Server) { s.noDirty = true }
}

// WithoutHashAnnex disables the qXfer:memory-hash:read annex, modeling a
// stub that cannot hash its memory; clients degrade to whole-page refetch.
func WithoutHashAnnex() ServerOption {
	return func(s *Server) { s.noHash = true }
}

// Serve starts an RSP server on addr ("127.0.0.1:0" for an ephemeral
// port). It returns immediately; connections are handled in goroutines.
func Serve(addr string, backing target.Target, opts ...ServerOption) (*Server, error) {
	s := &Server{backing: backing, packetMax: maxPacket}
	for _, o := range opts {
		o(s)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gdbrsp: listen: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// PacketSize returns the advertised packet bound (payload bytes).
func (s *Server) PacketSize() int { return s.packetMax }

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.handle(conn)
	}
}

// stubConn is the per-connection state: reusable packet buffers plus the
// serialized annex blobs, cached so a chunked qXfer sequence reads one
// consistent snapshot even if the image mutates between stops.
type stubConn struct {
	s *Server
	// Reused per packet: the request payload, the reply payload, the wire
	// bytes ('+' ack then the framed reply), and memory read scratch.
	in, reply, out, mem []byte

	mapBlob []byte
	// Chunked-annex reply caches, keyed by the annex argument so a
	// continuation sequence reads one consistent blob. Rebuilt whenever a
	// request arrives at offset 0 or with a different argument.
	hashBlob, hashKey   []byte
	dirtyBlob, dirtyKey []byte
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	st := &stubConn{s: s}
	for {
		in, err := readPacket(r, st.in, s.packetMax)
		if err != nil {
			return
		}
		st.in = in
		reply, kill := st.dispatch(st.reply[:0], in)
		st.reply = reply
		// Ack the well-formed packet and send the reply in one write.
		st.out = appendPacket(append(st.out[:0], '+'), reply)
		if _, err := conn.Write(st.out); err != nil {
			return
		}
		// The stub ignores the client's ack of our reply (read and drop).
		// The client sends that ack with its next request, so this read
		// returns together with the next packet.
		if b, err := r.Peek(1); err == nil && (b[0] == '+' || b[0] == '-') {
			_, _ = r.ReadByte()
		}
		if kill {
			return
		}
	}
}

// zeroRegs is the register file the stub reports: 16 64-bit registers, all
// zero — we debug state, not registers.
var zeroRegs = strings.Repeat("0", 16*16)

// hasPrefix reports whether payload starts with prefix, without converting
// the payload to a string.
func hasPrefix(payload []byte, prefix string) bool {
	return len(payload) >= len(prefix) && string(payload[:len(prefix)]) == prefix
}

// dispatch appends the reply for one packet to out; kill reports session end.
// payload is parsed in place: it is valid only until the next packet.
func (c *stubConn) dispatch(out, payload []byte) (reply []byte, kill bool) {
	s := c.s
	switch {
	case len(payload) == 0:
		return out, false
	case payload[0] == 'm':
		addr, length, err := splitAddrLen(payload[1:])
		if err != nil {
			return appendError(out, 0x16), false // EINVAL
		}
		// A reply is hex (2 chars per byte) and must fit the negotiated
		// packet: larger requests get a short reply — the standards-correct
		// signal (not an error) that the client should resume at addr+n.
		if bound := uint64(s.packetMax / 2); length > bound {
			length = bound
		}
		data := c.readMappedPrefix(addr, length)
		if len(data) == 0 && length > 0 {
			return appendError(out, 0x0e), false // EFAULT: not even the first byte
		}
		return hex.AppendEncode(out, data), false
	case hasPrefix(payload, "qXfer:memory:read:"):
		return c.xferMemoryRead(out, payload[len("qXfer:memory:read:"):]), false
	case hasPrefix(payload, "qXfer:memory-map:read:"):
		return c.xferMemoryMap(out, payload[len("qXfer:memory-map:read:"):]), false
	case hasPrefix(payload, "qXfer:memory-hash:read:"):
		return c.xferMemoryHash(out, payload[len("qXfer:memory-hash:read:"):]), false
	case hasPrefix(payload, "qXfer:dirty-ranges:read:"):
		return c.xferDirtyRanges(out, payload[len("qXfer:dirty-ranges:read:"):]), false
	case string(payload) == "?":
		return append(out, "S05"...), false // stopped by SIGTRAP, like a fresh attach
	case string(payload) == "g":
		return append(out, zeroRegs...), false
	case payload[0] == 'p':
		return append(out, zeroRegs[:16]...), false
	case payload[0] == 'H':
		return append(out, "OK"...), false
	case string(payload) == "qAttached":
		return append(out, '1'), false
	case string(payload) == "vMustReplyEmpty":
		return out, false
	case hasPrefix(payload, "qSupported"):
		out = append(out, "PacketSize="...)
		out = strconv.AppendUint(out, uint64(s.packetMax), 16)
		out = append(out, ";qXfer:features:read-;qXfer:memory:read+"...)
		if _, ok := target.Find[mappedRanger](s.backing); ok {
			out = append(out, ";qXfer:memory-map:read+"...)
		}
		if !s.noHash {
			out = append(out, ";qXfer:memory-hash:read+"...)
		}
		if !s.noDirty {
			if _, ok := target.Find[target.DirtyTracker](s.backing); ok {
				out = append(out, ";qXfer:dirty-ranges:read+"...)
			}
		}
		return out, false
	case string(payload) == "D": // detach
		return append(out, "OK"...), true
	case string(payload) == "k": // kill
		return out, true
	case payload[0] == 'X' || payload[0] == 'M':
		// Memory writes: the visualizer never writes; refuse politely.
		return appendError(out, 0x0d), false // EACCES
	case payload[0] == 'c' || payload[0] == 's':
		// Continue/step: the simulated machine is permanently stopped.
		return append(out, "S05"...), false
	default:
		return out, false // unsupported -> empty reply per RSP
	}
}

// mappedRanger is what the backing must expose for the memory-map annex.
type mappedRanger interface {
	MappedRanges() []target.Range
}

// chunkBytes is the most memory bytes one continuation reply carries: the
// `m`/`l` marker plus the escaped bytes must fit the negotiated packet, so
// a chunk of escape-free memory carries PacketSize-1 bytes.
func (s *Server) chunkBytes() uint64 { return uint64(s.packetMax - 1) }

// appendChunk appends one `m`/`l` continuation reply carrying the longest
// prefix of data that fits the packet as escaped binary. The chunk is `l`
// only when it carries all of data and ends says data runs to the end of
// the object; a chunk cut short by the escape budget is `m`, and the
// client resumes after the bytes it carried.
func appendChunk(out, data []byte, ends bool, packetMax int) []byte {
	mark := len(out)
	out, n := appendEscaped(append(out, 'm'), data, packetMax-1)
	if ends && n == len(data) {
		out[mark] = 'l'
	}
	return out
}

// xferMemoryRead serves one window of a qXfer:memory:read:ADDR,LEN:OFF,N
// request. The annex names the whole object ([ADDR, ADDR+LEN)); OFF,N is the
// client's window into it. Replies are `m<binary>` (more follows) or
// `l<binary>` (object ends with this chunk). A window that stops short —
// the read ran off the mapped prefix — ends in an `l` chunk: the object
// ends early, and the client sees exactly how many bytes were readable.
func (c *stubConn) xferMemoryRead(out, spec []byte) []byte {
	i := indexByte(spec, ':')
	if i < 0 {
		return appendError(out, 0x16)
	}
	addr, length, err := splitAddrLen(spec[:i])
	if err != nil {
		return appendError(out, 0x16)
	}
	off, n, err := splitAddrLen(spec[i+1:])
	if err != nil || off > length {
		return appendError(out, 0x16)
	}
	window := length - off
	if n < window {
		window = n
	}
	if bound := c.s.chunkBytes(); window > bound {
		window = bound
	}
	if window == 0 {
		return append(out, 'l')
	}
	data := c.readMappedPrefix(addr+off, window)
	if len(data) == 0 {
		if off == 0 {
			return appendError(out, 0x0e) // nothing readable at all
		}
		return append(out, 'l') // mapped prefix ends exactly at off
	}
	return appendChunk(out, data, uint64(len(data)) < window || off+uint64(len(data)) == length, c.s.packetMax)
}

// xferMemoryMap serves the target's memory map as "addr,size;addr,size;..."
// (hex, merged mapped ranges, ascending), windowed by OFF,N with the same
// m/l continuation framing as memory reads. The map is serialized once per
// sequence (a request at offset 0) so chunked fetches stay consistent.
func (c *stubConn) xferMemoryMap(out, spec []byte) []byte {
	i := indexByte(spec, ':')
	if i < 0 {
		return appendError(out, 0x16)
	}
	off, n, err := splitAddrLen(spec[i+1:])
	if err != nil {
		return appendError(out, 0x16)
	}
	mr, ok := target.Find[mappedRanger](c.s.backing)
	if !ok {
		return out // unsupported -> empty reply per RSP
	}
	if off == 0 || c.mapBlob == nil {
		c.mapBlob = appendMemMap(c.mapBlob[:0], mr.MappedRanges())
	}
	return windowText(out, c.mapBlob, off, n, c.s.packetMax)
}

// appendMemMap serializes a memory map: "addr,size;" per range, hex.
func appendMemMap(dst []byte, ranges []target.Range) []byte {
	for _, r := range ranges {
		dst = append(appendAddrLen(dst, r.Addr, r.Size), ';')
	}
	return dst
}

// xferMemoryHash serves qXfer:memory-hash:read:ADDR,LEN:OFF,N — SubPage-
// granular FNV-1a 64 content hashes of [ADDR, ADDR+LEN), 16 hex chars per
// block, windowed with the usual m/l continuation framing. The hash vector
// is computed once per sequence (offset 0 or a new range) so a chunked
// fetch sees one consistent snapshot. Unmapped blocks hash as 0, matching
// the machine-side convention. This is the cheap revalidation primitive:
// the debugger confirms a stale page unchanged for 16 hex chars per 256 B
// instead of re-reading 4 KiB.
func (c *stubConn) xferMemoryHash(out, spec []byte) []byte {
	if c.s.noHash {
		return out // unsupported -> empty reply per RSP
	}
	i := indexByte(spec, ':')
	if i < 0 {
		return appendError(out, 0x16)
	}
	addr, length, err := splitAddrLen(spec[:i])
	if err != nil || addr%target.SubPage != 0 || length%target.SubPage != 0 || length == 0 {
		return appendError(out, 0x16)
	}
	off, n, err := splitAddrLen(spec[i+1:])
	if err != nil {
		return appendError(out, 0x16)
	}
	key := spec[:i]
	if off == 0 || !bytes.Equal(c.hashKey, key) || c.hashBlob == nil {
		hashes, ok := target.HashBlocks(c.s.backing, addr, length)
		if !ok {
			hashes = c.hashLocally(addr, length)
		}
		c.hashBlob = appendHashes(c.hashBlob[:0], hashes)
		c.hashKey = append(c.hashKey[:0], key...)
	}
	return windowText(out, c.hashBlob, off, n, c.s.packetMax)
}

// appendHashes serializes block hashes as 16 hex digits each.
func appendHashes(dst []byte, hashes []uint64) []byte {
	for _, h := range hashes {
		dst = appendHex64(dst, h)
	}
	return dst
}

// hashLocally computes block hashes by reading the backing memory — the
// fallback when the backing target has no native hasher.
func (c *stubConn) hashLocally(addr, length uint64) []uint64 {
	hashes := make([]uint64, 0, length/target.SubPage)
	buf := make([]byte, target.SubPage)
	for off := uint64(0); off < length; off += target.SubPage {
		if err := c.s.backing.ReadMemory(addr+off, buf); err != nil {
			hashes = append(hashes, 0)
			continue
		}
		hashes = append(hashes, target.HashBlock(buf))
	}
	return hashes
}

// xferDirtyRanges serves qXfer:dirty-ranges:read:MARK:OFF,N — the write
// journal since MARK as "NEXTMARK;addr,size;addr,size;..." (hex), windowed
// with m/l framing. An error reply at offset 0 means the journal could not
// answer (history lost past MARK, or no journal); the client then falls
// back to hash revalidation. MARK=ffffffffffffffff arms a fresh cursor.
func (c *stubConn) xferDirtyRanges(out, spec []byte) []byte {
	if c.s.noDirty {
		return out
	}
	i := indexByte(spec, ':')
	if i < 0 {
		return appendError(out, 0x16)
	}
	mark, err := parseHexU64(spec[:i])
	if err != nil {
		return appendError(out, 0x16)
	}
	off, n, err := splitAddrLen(spec[i+1:])
	if err != nil {
		return appendError(out, 0x16)
	}
	key := spec[:i]
	if off == 0 || !bytes.Equal(c.dirtyKey, key) || c.dirtyBlob == nil {
		dt, ok := target.Find[target.DirtyTracker](c.s.backing)
		if !ok {
			return out
		}
		ranges, next, ok := dt.DirtySince(mark)
		if !ok {
			return appendError(out, 0x0b) // EAGAIN: history lost, re-arm and revalidate
		}
		c.dirtyBlob = appendDirty(c.dirtyBlob[:0], next, ranges)
		c.dirtyKey = append(c.dirtyKey[:0], key...)
	}
	return windowText(out, c.dirtyBlob, off, n, c.s.packetMax)
}

// appendDirty serializes a journal answer: "NEXT;addr,size;addr,size...", hex.
func appendDirty(dst []byte, next uint64, ranges []target.Range) []byte {
	dst = strconv.AppendUint(dst, next, 16)
	for _, r := range ranges {
		dst = appendAddrLen(append(dst, ';'), r.Addr, r.Size)
	}
	return dst
}

// windowText appends one OFF,N window of a plain-text annex blob as an m/l
// continuation reply, bounded by the negotiated packet size. The blobs hold
// no escapable byte, so the chunk carries the text as is.
func windowText(out, blob []byte, off, n uint64, packetMax int) []byte {
	if off >= uint64(len(blob)) {
		return append(out, 'l')
	}
	window := uint64(len(blob)) - off
	if n < window {
		window = n
	}
	return appendChunk(out, blob[off:off+window], off+window == uint64(len(blob)), packetMax)
}

// readMappedPrefix reads up to length bytes at addr into the connection's
// scratch buffer, returning the longest readable prefix (valid until the
// next call). A fully readable range costs one backing read; a range
// running off the mapped prefix degrades to page-bounded chunks so the
// prefix ends exactly at the mapping edge (the backing's granularity).
func (c *stubConn) readMappedPrefix(addr, length uint64) []byte {
	if uint64(cap(c.mem)) < length {
		c.mem = make([]byte, length)
	}
	buf := c.mem[:length]
	if err := c.s.backing.ReadMemory(addr, buf); err == nil {
		return buf
	}
	got := uint64(0)
	for got < length {
		cur := addr + got
		n := length - got
		if room := target.PageSize - cur%target.PageSize; n > room {
			n = room
		}
		if err := c.s.backing.ReadMemory(cur, buf[got:got+n]); err != nil {
			break
		}
		got += n
	}
	return buf[:got]
}
