package gdbrsp

import "testing"

func TestChecksumAndFraming(t *testing.T) {
	p := appendPacket(nil, []byte("m1000,8"))
	if string(p) != "$m1000,8#92" {
		t.Errorf("frame = %q", p)
	}
	if checksum([]byte("OK")) != 'O'+'K' {
		t.Errorf("checksum broken")
	}
}

func TestHexParsing(t *testing.T) {
	if v, err := parseHexU64("ffff888000001000"); err != nil || v != 0xffff888000001000 {
		t.Errorf("parse = %#x, %v", v, err)
	}
	if _, err := parseHexU64("xyz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := parseHexU64(""); err == nil {
		t.Error("empty hex accepted")
	}
	b := make([]byte, 3)
	n, err := decodeHex(b, []byte("cafe01"))
	if err != nil || n != 3 || b[0] != 0xCA || b[2] != 1 {
		t.Errorf("decode = %v, %v", b, err)
	}
	if _, err := decodeHex(b, []byte("abc")); err == nil {
		t.Error("odd hex accepted")
	}
	a, l, err := splitAddrLen("1000,40")
	if err != nil || a != 0x1000 || l != 0x40 {
		t.Errorf("addrlen = %#x,%#x, %v", a, l, err)
	}
	if _, _, err := splitAddrLen("1000"); err == nil {
		t.Error("missing comma accepted")
	}
}
