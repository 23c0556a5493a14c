package gdbrsp_test

import (
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// dialKernel serves a simulated kernel over RSP and dials it back,
// returning both ends.
func dialKernel(t testing.TB) (*kernelsim.Kernel, *gdbrsp.Client) {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	srv, err := gdbrsp.Serve("127.0.0.1:0", k.Target())
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := gdbrsp.Dial(srv.Addr(), k.Reg, k.Target().Symbols())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return k, client
}

func TestMemoryOverWire(t *testing.T) {
	k, client := dialKernel(t)
	// A direct read and a wire read must agree.
	want, err := target.ReadU64(k.Target(), k.InitTask.Addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := target.ReadU64(client, k.InitTask.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("wire read %#x != direct %#x", got, want)
	}
	// Large read (forces chunking): a whole task_struct.
	sz := k.Reg.MustLookup("task_struct").Size()
	direct := make([]byte, sz)
	wire := make([]byte, sz)
	if err := k.Target().ReadMemory(k.InitTask.Addr, direct); err != nil {
		t.Fatal(err)
	}
	if err := client.ReadMemory(k.InitTask.Addr, wire); err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != wire[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	// Unmapped memory errors cleanly.
	var b [8]byte
	if err := client.ReadMemory(0xdead_0000_0000, b[:]); err == nil {
		t.Error("unmapped read succeeded over wire")
	}
	// Stats counted on the client side.
	if reads, _ := client.Stats().Snapshot(); reads == 0 {
		t.Error("client stats not counted")
	}
}

// TestFigureOverWire runs a full ViewCL extraction through the RSP stack
// and requires the identical object graph as direct extraction — the
// "detached front-end for GDB" architecture end to end.
func TestFigureOverWire(t *testing.T) {
	k, client := dialKernel(t)
	fig, _ := vclstdlib.FigureByID("7-1")

	direct := core.NewSession(k.Target(), nil)
	pd, err := direct.VPlot("direct", fig.Program)
	if err != nil {
		t.Fatal(err)
	}
	remote := core.NewSession(client, nil)
	pr, err := remote.VPlot("remote", fig.Program)
	if err != nil {
		t.Fatalf("extraction over RSP: %v", err)
	}

	if len(pd.Graph.Boxes) != len(pr.Graph.Boxes) {
		t.Fatalf("box counts differ: %d vs %d", len(pd.Graph.Boxes), len(pr.Graph.Boxes))
	}
	// Same IDs, same rendered text values.
	for _, id := range pd.Graph.Order {
		db := pd.Graph.Boxes[id]
		rb, ok := pr.Graph.Get(id)
		if !ok {
			t.Fatalf("box %s missing over wire", id)
		}
		for _, vn := range db.ViewSeq {
			dv, rv := db.Views[vn], rb.Views[vn]
			if len(dv.Items) != len(rv.Items) {
				t.Fatalf("%s view %s item counts differ", id, vn)
			}
			for i := range dv.Items {
				if dv.Items[i].Value != rv.Items[i].Value {
					t.Errorf("%s.%s = %q over wire, %q direct",
						id, dv.Items[i].Name, rv.Items[i].Value, dv.Items[i].Value)
				}
			}
		}
	}
	// Renderings agree too (modulo the graph name in the header).
	if render.DOT(pd.Graph) == "" || render.DOT(pr.Graph) == "" {
		t.Error("rendering failed")
	}
}

func TestStackRotOverWire(t *testing.T) {
	_, client := dialKernel(t)
	s := core.NewSession(client, nil)
	p, err := s.VPlot("stackrot", vclstdlib.StackRotProgram)
	if err != nil {
		t.Fatalf("stackrot over RSP: %v", err)
	}
	if len(p.Graph.Roots) != 2 {
		t.Fatalf("roots = %d", len(p.Graph.Roots))
	}
	found := false
	for _, b := range p.Graph.ByType("rcu_head") {
		if f, ok := b.Member("func"); ok && f.Value == "mt_free_rcu" {
			found = true
		}
	}
	if !found {
		t.Error("RCU callback lost over the wire")
	}
}

func TestConcurrentClients(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	srv, err := gdbrsp.Serve("127.0.0.1:0", k.Target())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := gdbrsp.Dial(srv.Addr(), k.Reg, k.Target().Symbols())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			var buf [64]byte
			for j := 0; j < 50; j++ {
				if err := c.ReadMemory(k.InitTask.Addr, buf[:]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
