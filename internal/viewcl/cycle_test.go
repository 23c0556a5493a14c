package viewcl_test

import (
	"fmt"
	"strings"
	"testing"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/viewcl"
)

// cycleProgram plots one list_head list of tasks and one hlist of timers.
const cycleProgram = `
define T as Box<task_struct> [
    Text pid
]
define Timer as Box<timer_list> [
    Text expires
]

tasks = ${&cycle_tasks}
lst = List(@tasks).forEach |node| {
    yield T<task_struct.tasks>(@node)
}
timers = ${&cycle_timers}
hl = HList(@timers).forEach |node| {
    yield Timer<timer_list.entry>(@node)
}
plot @lst
plot @hl
`

// A next pointer that loops back past the head must not run the walk to
// MaxElems: both engines stop when the walk revisits a node, plot each node
// of the loop once, and note where the loop closes. The corruption is a
// self-loop (the second node links to itself), a two-node loop (the third
// node links back to the second) or a loop through every node that skips
// the head (the third node links back to the first).
func TestListCycleBounded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to int // node from's next is overwritten to point at node to
		want     int // nodes plotted: those before the loop, plus the loop
	}{
		{"self-loop", 1, 1, 2},
		{"two-node loop", 2, 1, 3},
		{"loop past the head", 2, 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := kernelsim.NewBuilder()
			head := b.Alloc("list_head")
			b.InitList(head.Addr)
			b.Symbol("cycle_tasks", head)
			hhead := b.Alloc("hlist_head")
			b.Symbol("cycle_timers", hhead)
			var tasks, timers []uint64
			for i := 0; i < 3; i++ {
				task := b.Alloc("task_struct")
				task.Set("pid", uint64(100+i))
				b.ListAddTail(head.Addr, task.FieldAddr("tasks"))
				tasks = append(tasks, task.FieldAddr("tasks"))
				timer := b.Alloc("timer_list")
				timer.Set("expires", uint64(1000+i))
				b.HListAddHead(hhead.Addr, timer.FieldAddr("entry"))
				timers = append([]uint64{timer.FieldAddr("entry")}, timers...) // walk order
			}
			b.Mem.WriteU64(tasks[tc.from], tasks[tc.to])   // list_head.next
			b.Mem.WriteU64(timers[tc.from], timers[tc.to]) // hlist_node.next

			notes := []string{
				fmt.Sprintf("List cycle at %#x", tasks[tc.to]),
				fmt.Sprintf("HList cycle at %#x", timers[tc.to]),
			}
			var texts []string
			for _, interpret := range []bool{false, true} {
				env := expr.NewEnv(b.Tgt)
				kernelsim.RegisterHelpers(env)
				in := viewcl.New(env)
				res, err := runEngine(in, interpret, "cycle", cycleProgram)
				if err != nil {
					t.Fatalf("interpret=%v: %v", interpret, err)
				}
				var issues []string
				for _, e := range res.Errors {
					issues = append(issues, e.Error())
				}
				joined := strings.Join(issues, "\n")
				for _, note := range notes {
					if !strings.Contains(joined, note) {
						t.Errorf("interpret=%v: issues %q lack %q", interpret, issues, note)
					}
				}
				if strings.Contains(joined, "truncated") {
					t.Errorf("interpret=%v: loop reported as truncation: %q", interpret, issues)
				}
				for _, typ := range []string{"task_struct", "timer_list"} {
					if got := len(res.Graph.ByType(typ)); got != tc.want {
						t.Errorf("interpret=%v: %d %s boxes, want %d", interpret, got, typ, tc.want)
					}
				}
				for _, bx := range res.Graph.All() {
					for _, it := range bx.CurrentView().Items {
						if it.Kind == graph.ItemContainer && len(it.Elems) != tc.want {
							t.Errorf("interpret=%v: container %s holds %d elements, want %d",
								interpret, bx.ID, len(it.Elems), tc.want)
						}
					}
				}
				texts = append(texts, render.Text(res.Graph))
			}
			if texts[0] != texts[1] {
				t.Errorf("engines diverge on the looping lists:\n--- compiled ---\n%s\n--- interpreted ---\n%s", texts[0], texts[1])
			}
		})
	}
}

// xaProgram plots the pages an xarray holds.
const xaProgram = `
define P as Box<page> [
    Text index
]
root = Box [
    Container pages: XArray(${&cycle_xa}).forEach |e| {
        yield P(@e)
    }
]
plot @root
`

// An xa_node slot that leads back up the tree must not recurse without end:
// both engines plot the pages reached before the bad link, stop there, and
// note the node whose shift breaks the parent-minus-XA_CHUNK_SHIFT
// invariant. The corruption is a self-slot (the root's second slot points
// at the root), a two-node loop (the root's child points back at the root),
// or a bare self-slot (the root's only slot is itself, so no element ever
// reaches MaxElems to stop the descent).
func TestXArrayCycleBounded(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rootShift uint64
		pages     int
	}{
		{"self-slot", 6, 2},
		{"two-node loop", 12, 2},
		{"bare self-slot", 6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := kernelsim.NewBuilder()
			xa := b.Alloc("xarray")
			b.Symbol("cycle_xa", xa)
			slot := func(node kernelsim.Obj, i, v uint64) {
				b.Mem.WriteU64(node.FieldAddr("slots")+i*8, v)
			}
			leaf := b.Alloc("xa_node")
			for i := 0; i < tc.pages; i++ {
				pg := b.Alloc("page")
				pg.Set("index", uint64(i))
				slot(leaf, uint64(i), pg.Addr)
			}
			root := b.Alloc("xa_node")
			root.Set("shift", tc.rootShift)
			parent := root // the node whose last slot loops back to root
			if tc.rootShift > 6 {
				parent = b.Alloc("xa_node")
				parent.Set("shift", 6)
				slot(root, 0, kernelsim.XaMkInternal(parent.Addr))
			}
			next := uint64(0)
			if tc.pages > 0 {
				slot(parent, 0, kernelsim.XaMkInternal(leaf.Addr))
				next++
			}
			slot(parent, next, kernelsim.XaMkInternal(root.Addr))
			xa.Set("xa_head", kernelsim.XaMkInternal(root.Addr))

			note := fmt.Sprintf("XArray cycle or corrupt shift at %#x", root.Addr)
			var texts []string
			for _, interpret := range []bool{false, true} {
				env := expr.NewEnv(b.Tgt)
				kernelsim.RegisterHelpers(env)
				in := viewcl.New(env)
				res, err := runEngine(in, interpret, "xa-cycle", xaProgram)
				if err != nil {
					t.Fatalf("interpret=%v: %v", interpret, err)
				}
				var issues []string
				for _, e := range res.Errors {
					issues = append(issues, e.Error())
				}
				if joined := strings.Join(issues, "\n"); !strings.Contains(joined, note) {
					t.Errorf("interpret=%v: issues %q lack %q", interpret, issues, note)
				}
				if got := len(res.Graph.ByType("page")); got != tc.pages {
					t.Errorf("interpret=%v: %d page boxes, want %d", interpret, got, tc.pages)
				}
				texts = append(texts, render.Text(res.Graph))
			}
			if texts[0] != texts[1] {
				t.Errorf("engines diverge on the looping xarray:\n--- compiled ---\n%s\n--- interpreted ---\n%s", texts[0], texts[1])
			}
		})
	}
}

// pipeProgram plots the buffers of the DirtyPipe case study's pipe ring.
const pipeProgram = `
define B as Box<pipe_buffer> [
    Text offset, len
]
root = Box [
    Container bufs: PipeRing(${&dirty_pipe}).forEach |b| {
        yield B(@b)
    }
]
plot @root
`

// A corrupt pipe ring must not be walked silently: a ring_size that is not
// a power of two fails the container (masking would pick the wrong slots),
// and a head/tail gap past MaxElems is truncated with a note. Both engines
// plot the same thing.
func TestPipeRingCorrupt(t *testing.T) {
	const maxElems = 64
	for _, tc := range []struct {
		name    string
		corrupt func(pipe kernelsim.Obj)
		note    string
		bufs    int // distinct slots plotted (a box per buffer address)
	}{
		{"ring_size not a power of two", func(p kernelsim.Obj) { p.Set("ring_size", 6) },
			"PipeRing ring_size 6 not a power of two", 0},
		{"gap past MaxElems", func(p kernelsim.Obj) { p.Set("head", 1000) },
			fmt.Sprintf("PipeRing truncated at %d elements", maxElems), kernelsim.PipeRingSize},
		{"inverted head/tail", func(p kernelsim.Obj) { p.Set("head", 0); p.Set("tail", 2) },
			fmt.Sprintf("PipeRing truncated at %d elements", maxElems), kernelsim.PipeRingSize},
		{"wrapped counters", func(p kernelsim.Obj) { p.Set("head", 1); p.Set("tail", 0xffff_ffff) },
			"", 2}, // the 32-bit counters wrapped: slots 7 and 0 are occupied
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelsim.Build(kernelsim.Options{})
			tc.corrupt(k.DirtyPipe)
			var texts []string
			for _, interpret := range []bool{false, true} {
				env := expr.NewEnv(k.Target())
				kernelsim.RegisterHelpers(env)
				in := viewcl.New(env)
				in.MaxElems = maxElems
				res, err := runEngine(in, interpret, "pipe-ring", pipeProgram)
				if err != nil {
					t.Fatalf("interpret=%v: %v", interpret, err)
				}
				var issues []string
				for _, e := range res.Errors {
					issues = append(issues, e.Error())
				}
				joined := strings.Join(issues, "\n")
				if tc.note != "" && !strings.Contains(joined, tc.note) {
					t.Errorf("interpret=%v: issues %q lack %q", interpret, issues, tc.note)
				}
				if tc.note == "" && joined != "" {
					t.Errorf("interpret=%v: unexpected issues %q", interpret, issues)
				}
				if got := len(res.Graph.ByType("pipe_buffer")); got != tc.bufs {
					t.Errorf("interpret=%v: %d pipe_buffer boxes, want %d", interpret, got, tc.bufs)
				}
				texts = append(texts, render.Text(res.Graph))
			}
			if texts[0] != texts[1] {
				t.Errorf("engines diverge on the corrupt pipe:\n--- compiled ---\n%s\n--- interpreted ---\n%s", texts[0], texts[1])
			}
		})
	}
}
