package perf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"net"
	"sync"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

// wireDigestFigure is the figure the wire512 sessions extract: large enough
// to need qXfer continuations at PacketSize 512.
const wireDigestFigure = "3-4"

type streamDigest struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

type wireDigest struct {
	Session      string       `json:"session"`
	Figure       string       `json:"figure"`
	PacketSize   int          `json:"packet_size"`
	ClientToStub streamDigest `json:"client_to_stub"`
	StubToClient streamDigest `json:"stub_to_client"`
}

// countingHash hashes and counts everything written to it.
type countingHash struct {
	h hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (c *countingHash) digest() streamDigest {
	return streamDigest{Bytes: c.n, SHA256: hex.EncodeToString(c.h.Sum(nil))}
}

// teeProxy forwards one connection to upstream, hashing each direction.
// wait blocks until both directions have closed.
func teeProxy(t *testing.T, upstream string) (addr string, up, down *countingHash, wait func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	up = &countingHash{h: sha256.New()}
	down = &countingHash{h: sha256.New()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cc, err := ln.Accept()
		if err != nil {
			return
		}
		sc, err := net.Dial("tcp", upstream)
		if err != nil {
			cc.Close()
			return
		}
		var dirs sync.WaitGroup
		dirs.Add(2)
		pipe := func(dst, src net.Conn, h io.Writer) {
			defer dirs.Done()
			_, _ = io.Copy(io.MultiWriter(dst, h), src)
			if tc, ok := dst.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
		}
		go pipe(sc, cc, up)
		go pipe(cc, sc, down)
		dirs.Wait()
		cc.Close()
		sc.Close()
	}()
	return ln.Addr().String(), up, down, wg.Wait
}

// wireSession runs a PacketSize-512 attach, a cold round of one figure, a
// workload step, a stop round and a detach against a stub built with opts,
// and returns the digest of each direction. Any change to packet framing,
// hex case, checksum digits, request formatting or annex reply text shows
// up in it.
func wireSession(t *testing.T, name string, fig vclstdlib.Figure, opts ...gdbrsp.ServerOption) wireDigest {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	srv, err := gdbrsp.Serve("127.0.0.1:0", k.Target(), append(opts, gdbrsp.WithPacketSize(512))...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, up, down, wait := teeProxy(t, srv.Addr())
	client, err := gdbrsp.Dial(addr, k.Reg, k.Target().Symbols())
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewIncrementalExtractor(k, client, []vclstdlib.Figure{fig}, nil)
	if _, err := x.Round(); err != nil {
		t.Fatalf("%s: cold round: %v", name, err)
	}
	kernelsim.NewWorkload(k).Step()
	x.Advance()
	if _, err := x.Round(); err != nil {
		t.Fatalf("%s: stop round: %v", name, err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	return wireDigest{
		Session:      name,
		Figure:       fig.ID,
		PacketSize:   512,
		ClientToStub: up.digest(),
		StubToClient: down.digest(),
	}
}

// wire512Ledger is the wire512 section: the exact bytes both ends put on
// the wire, once revalidating through the dirty-ranges annex, once through
// memory hashes.
func wire512Ledger(t *testing.T) any {
	fig := mustFigure(t, wireDigestFigure)
	return []wireDigest{
		wireSession(t, "dirty-ranges", fig),
		wireSession(t, "memory-hash", fig, gdbrsp.WithoutDirtyAnnex()),
	}
}
