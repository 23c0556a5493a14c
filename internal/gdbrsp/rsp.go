// Package gdbrsp implements the GDB Remote Serial Protocol (RSP) — the
// wire protocol GDB speaks to QEMU's gdbstub and to KGDB. The paper's tool
// is "a detached front-end for GDB"; this package makes that architecture
// concrete in the reproduction:
//
//	Visualinux engine -> Client (this pkg, implements target.Target)
//	    -> TCP, real $m addr,len#cs packets ->
//	Server (this pkg) -> simulated kernel memory
//
// Type information and symbols do NOT travel over RSP — real GDB reads
// them from vmlinux's DWARF on the local side — so the Client carries the
// registry and symbol table locally and forwards only memory traffic,
// exactly mirroring GDB's split.
//
// The subset implemented is what a memory-inspecting debugger session
// uses: qSupported, ?, g/p (register stubs), m (memory read), H, D, k,
// qAttached, vMustReplyEmpty, plus correct checksums and +/- acks.
package gdbrsp

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
)

// maxPacket is our advertised packet size (payload bytes).
const maxPacket = 4096

// hexDigits renders one nibble as a lowercase hex digit.
const hexDigits = "0123456789abcdef"

// checksum computes the RSP modulo-256 sum of the payload.
func checksum(payload []byte) byte {
	var sum byte
	for _, b := range payload {
		sum += b
	}
	return sum
}

// appendPacket frames a payload onto dst: $<payload>#<2-hex-checksum>.
func appendPacket(dst, payload []byte) []byte {
	sum := checksum(payload)
	dst = append(dst, '$')
	dst = append(dst, payload...)
	return append(dst, '#', hexDigits[sum>>4], hexDigits[sum&0xf])
}

// appendHex64 appends v as exactly 16 lowercase hex digits.
func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[v>>uint(shift)&0xf])
	}
	return dst
}

// appendAddrLen appends "ADDR,LEN" in RSP hex (no padding, no 0x).
func appendAddrLen(dst []byte, addr, length uint64) []byte {
	dst = strconv.AppendUint(dst, addr, 16)
	dst = append(dst, ',')
	return strconv.AppendUint(dst, length, 16)
}

// appendError appends an RSP error response (Exx).
func appendError(dst []byte, code byte) []byte {
	return append(dst, 'E', hexDigits[code>>4], hexDigits[code&0xf])
}

// errChecksum reports a frame whose checksum digits disagree with its payload.
var errChecksum = errors.New("gdbrsp: checksum mismatch")

// sizeError reports a payload above the negotiated PacketSize.
type sizeError int

func (e sizeError) Error() string {
	return "gdbrsp: packet exceeds negotiated size " + strconv.Itoa(int(e))
}

// readPacket consumes one $...#cs frame and returns its payload, appended to
// dst[:0]. Acks, interrupt bytes and noise before the '$' are skipped.
// Payloads above max (the negotiated PacketSize) are rejected: accepting more
// would silently void the bound both ends agreed on.
func readPacket(r *bufio.Reader, dst []byte, max int) ([]byte, error) {
	for {
		c, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if c == '$' {
			break
		}
	}
	dst = dst[:0]
	for {
		// The slice aliases r's buffer: copy it out before the next read.
		chunk, err := r.ReadSlice('#')
		if err == nil {
			if len(dst)+len(chunk)-1 > max {
				return nil, sizeError(max)
			}
			dst = append(dst, chunk[:len(chunk)-1]...)
			break
		}
		if len(dst)+len(chunk) > max {
			return nil, sizeError(max)
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
		dst = append(dst, chunk...)
	}
	hi, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	lo, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	h, ok1 := hexDigit(hi)
	l, ok2 := hexDigit(lo)
	if !ok1 || !ok2 {
		return nil, errors.New("gdbrsp: bad hex number " + strconv.Quote(string([]byte{hi, lo})))
	}
	if h<<4|l != checksum(dst) {
		return nil, errChecksum
	}
	return dst, nil
}

// escapeByte reports whether b travels escaped in binary data (GDB's
// "Binary Data"): the frame delimiters '$' and '#', the escape '}' itself,
// and '*', which starts a run-length encoding.
func escapeByte(b byte) bool { return b == '#' || b == '$' || b == '}' || b == '*' }

// appendEscaped appends the longest prefix of data whose escaped form fits
// in budget bytes, each escapable byte as '}' then the byte XOR 0x20, and
// returns how many bytes of data it carries. An escape pair never straddles
// the budget: it moves whole to the next chunk.
func appendEscaped(dst, data []byte, budget int) ([]byte, int) {
	n := 0
	for ; n < len(data); n++ {
		b := data[n]
		if !escapeByte(b) {
			if budget < 1 {
				break
			}
			dst = append(dst, b)
			budget--
			continue
		}
		if budget < 2 {
			break
		}
		dst = append(dst, '}', b^0x20)
		budget -= 2
	}
	return dst, n
}

// errLoneEscape reports binary data that ends in the escape byte.
var errLoneEscape = errors.New("gdbrsp: binary data ends in a lone '}'")

// unescape decodes binary data src into dst and returns the decoded length.
// Only len(dst) bytes are written; a longer decoded length is the caller's
// to report (over-delivery). Data ending in a lone '}' is malformed.
func unescape(dst, src []byte) (int, error) {
	n := 0
	for i := 0; i < len(src); i++ {
		b := src[i]
		if b == '}' {
			i++
			if i == len(src) {
				return n, errLoneEscape
			}
			b = src[i] ^ 0x20
		}
		if n < len(dst) {
			dst[n] = b
		}
		n++
	}
	return n, nil
}

// decodeHex parses hex digits (either case) from src into dst, which must
// hold len(src)/2 bytes, and returns the byte count.
func decodeHex(dst, src []byte) (int, error) {
	if len(src)%2 != 0 {
		return 0, fmt.Errorf("gdbrsp: odd hex length %d", len(src))
	}
	n := len(src) / 2
	for i := 0; i < n; i++ {
		hi, ok1 := hexDigit(src[2*i])
		lo, ok2 := hexDigit(src[2*i+1])
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("gdbrsp: bad hex %q", src[2*i:2*i+2])
		}
		dst[i] = hi<<4 | lo
	}
	return n, nil
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// text is a packet field: a string on the client, the request bytes on the
// stub, which parses them in place.
type text interface{ ~string | ~[]byte }

// parseHexU64 parses a hex number (no 0x prefix, RSP style).
func parseHexU64[T text](s T) (uint64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("gdbrsp: empty number")
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d, ok := hexDigit(s[i])
		if !ok {
			return 0, fmt.Errorf("gdbrsp: bad hex number %q", s)
		}
		v = v<<4 | uint64(d)
	}
	return v, nil
}

// indexByte returns the index of the first c in s, or -1.
func indexByte[T text](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// splitAddrLen parses "ADDR,LEN".
func splitAddrLen[T text](s T) (addr, length uint64, err error) {
	i := indexByte(s, ',')
	if i < 0 {
		return 0, 0, fmt.Errorf("gdbrsp: malformed addr,len %q", s)
	}
	addr, err = parseHexU64(s[:i])
	if err != nil {
		return 0, 0, err
	}
	length, err = parseHexU64(s[i+1:])
	return addr, length, err
}
