package viewcl_test

import (
	"strings"
	"testing"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

func newInterp(t *testing.T) (*kernelsim.Kernel, *viewcl.Interp) {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	return k, interpOver(k.Target())
}

// The paper's §1 motivating program: plot the CFS run queue of CPU 0.
const schedProgram = `
// Declare a Box for a task_struct object
define Task as Box<task_struct> [
    Text pid, comm
    Text ppid: ${@this->parent->pid}
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]

// cpu_rq(0) is the run queue of the first processor
root = ${cpu_rq(0)->cfs.tasks_timeline}

sched_tree = RBTree(@root).forEach |node| {
    yield Task<task_struct.se.run_node>(@node)
}

plot @sched_tree
`

func TestSchedProgram(t *testing.T) {
	k, in := newInterp(t)
	res, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g := res.Graph
	if g.RootID == "" {
		t.Fatalf("no root")
	}
	tasks := g.ByType("task_struct")
	if len(tasks) == 0 {
		t.Fatalf("no tasks extracted")
	}
	// Every extracted task must be on CPU 0's run queue, sorted by
	// vruntime (RBTree in-order).
	var prev uint64
	for i, b := range tasks {
		vr, ok := b.Member("se.vruntime")
		if !ok {
			t.Fatalf("task %s missing se.vruntime", b.ID)
		}
		if !vr.IsNum {
			t.Fatalf("vruntime not numeric")
		}
		if i > 0 && vr.Raw < prev {
			t.Errorf("vruntime order violated: %d after %d", vr.Raw, prev)
		}
		prev = vr.Raw
		if st, ok := b.Member("state"); !ok || st.Value != "RUNNING" {
			t.Errorf("task %s state = %v, want RUNNING", b.ID, st.Value)
		}
		if _, ok := b.Member("comm"); !ok {
			t.Errorf("task %s missing comm", b.ID)
		}
	}
	// The number of extracted tasks must match the run queue population.
	e := expr.NewEnv(k.Target())
	kernelsim.RegisterHelpers(e)
	nr, err := expr.MustParse("cpu_rq(0)->cfs.nr_running", e.Types()).Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tasks)) != nr.Uint() {
		t.Errorf("extracted %d tasks, run queue says %d", len(tasks), nr.Uint())
	}
	if res.Errors != nil {
		t.Errorf("extraction errors: %v", res.Errors)
	}
	if g.Stats.Objects == 0 || g.Stats.Bytes == 0 {
		t.Errorf("stats not collected: %+v", g.Stats)
	}
}

// Views with inheritance (paper §2.2) plus where-clause links.
const viewsProgram = `
define RunQueue as Box<rq> [
    Text cpu, nr_running
    Text<u64:d> clock
]

define Task as Box<task_struct> {
    :default [
        Text pid, comm
    ]
    :default => :sched [
        Text se.vruntime
    ]
    :sched => :sched_rq [
        Link runqueue -> @rq
    ] where {
        rq = RunQueue(${cpu_rq(task_cpu(@this))})
    }
}

t = Task(${&init_task})
plot @t
`

func TestViewInheritance(t *testing.T) {
	_, in := newInterp(t)
	res, err := in.RunSource("views", viewsProgram)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g := res.Graph
	root, ok := g.Get(g.RootID)
	if !ok {
		t.Fatalf("missing root")
	}
	if len(root.Views) != 3 {
		t.Fatalf("views = %d, want 3", len(root.Views))
	}
	def := root.Views["default"]
	if len(def.Items) != 2 {
		t.Errorf("default items = %d, want 2", len(def.Items))
	}
	sched := root.Views["sched"]
	if len(sched.Items) != 3 {
		t.Errorf("sched items = %d, want 3 (inherited + own)", len(sched.Items))
	}
	srq := root.Views["sched_rq"]
	if len(srq.Items) != 4 {
		t.Errorf("sched_rq items = %d, want 4", len(srq.Items))
	}
	link := srq.Items[3]
	if link.Kind != graph.ItemLink || link.TargetID == "" {
		t.Fatalf("sched_rq link not materialized: %+v", link)
	}
	rqBox, ok := g.Get(link.TargetID)
	if !ok || rqBox.TypeName != "rq" {
		t.Fatalf("link target is %v", link.TargetID)
	}
}

// Process-tree recursion with containers: a box whose container constructs
// more boxes of the same type (cycle-safe via memoization).
const treeProgram = `
define Task as Box<task_struct> [
    Text pid, comm
    Link parent -> Task(${@this->parent})
    Container children: List(${@this->children}).forEach |node| {
        yield Task<task_struct.sibling>(@node)
    }
]

root = Task(${&init_task})
plot @root
`

func TestProcessTreeRecursion(t *testing.T) {
	k, in := newInterp(t)
	res, err := in.RunSource("ptree", treeProgram)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g := res.Graph
	tasks := g.ByType("task_struct")
	// All tasks that are children of someone must appear; init_task's
	// subtree covers every task we created except thread-group members
	// not linked via children... our builder links all tasks as children
	// of either init_task or systemd.
	if len(tasks) != len(k.Tasks) {
		t.Errorf("extracted %d tasks, kernel has %d", len(tasks), len(k.Tasks))
	}
	// Memoization: plotting the same task twice must not duplicate.
	seen := map[string]bool{}
	for _, b := range tasks {
		if seen[b.ID] {
			t.Fatalf("duplicate box %s", b.ID)
		}
		seen[b.ID] = true
	}
	// Reachability from the root covers everything.
	reach := g.Reachable([]string{g.RootID})
	if len(reach) != len(g.Boxes) {
		t.Errorf("reachable %d of %d boxes", len(reach), len(g.Boxes))
	}
}

// Switch-case polymorphism and inline boxes (Fig 3 mechanics).
const switchProgram = `
define VMArea as Box<vm_area_struct> [
    Text<u64:x> vm_start, vm_end
    Text<flag:vm_flags> flags: vm_flags
]

define MapleNode as Box<maple_node> [
    Container slots: @slots
] where {
    enode = ${@enode_in}
    is_leaf = ${mte_is_leaf(@enode)}
    slots = switch ${mte_node_type(@enode)} {
        case ${maple_leaf_64}:
            Array(${@this->mr64.slot}).forEach |item| {
                yield switch ${@item != 0} {
                    case ${true}: VMArea(@item)
                    otherwise: NULL
                }
            }
        case ${maple_arange_64}:
            Array(${@this->ma64.slot}).forEach |item| {
                yield switch ${xa_is_node(@item)} {
                    case ${true}: MapleNodeOf(@item)
                    otherwise: NULL
                }
            }
        otherwise: NULL
    }
}
`

func TestSwitchParse(t *testing.T) {
	// The program references MapleNodeOf which is undefined — we only
	// check that the rich switch/forEach/inline syntax parses.
	if _, err := viewcl.Parse("switch", switchProgram); err != nil {
		t.Fatalf("parse: %v", err)
	}
}

func TestDecorators(t *testing.T) {
	_, in := newInterp(t)
	res, err := in.RunSource("deco", `
define FileBox as Box<file> [
    Text name: ${@this->f_path.dentry->d_iname}
    Text<fptr> read: ${@this->f_op->read_iter}
    Text<u64:x> mapping: f_mapping
]
define Task as Box<task_struct> [
    Text pid
    Link file3 -> FileBox(${@this->files->fdt->fd[3]})
]
t = Task(${&init_task})
t1 = Task(${container_of(init_task.children.next, task_struct, sibling)})
plot @t1
`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g := res.Graph
	files := g.ByType("file")
	if len(files) == 0 {
		t.Fatalf("no file box (errors: %v)", res.Errors)
	}
	fb := files[0]
	rd, _ := fb.Member("read")
	if rd.Value != "generic_file_read_iter" {
		t.Errorf("fptr decorator: %q", rd.Value)
	}
	mp, _ := fb.Member("mapping")
	if !strings.HasPrefix(mp.Value, "0x") {
		t.Errorf("hex decorator: %q", mp.Value)
	}
	name, _ := fb.Member("name")
	if name.Value != "syslog" {
		t.Errorf("file name = %q, want syslog (init's fd 3)", name.Value)
	}
}

// maxWarmRunAllocs is the warm RunSource allocation count of figure 6-1 as
// measured when the compile cache became the one shared LRU: a warm run
// finds its lowered program there, and that lookup must cost nothing more
// than the per-interpreter map it replaced.
const maxWarmRunAllocs = 627

func TestWarmRunAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts vary")
	}
	fig, ok := vclstdlib.FigureByID("6-1")
	if !ok {
		t.Fatal("figure 6-1 missing")
	}
	_, in := newInterp(t)
	if _, err := in.RunSource(fig.ID, fig.Program); err != nil { // cold: lowers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := in.RunSource(fig.ID, fig.Program); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxWarmRunAllocs {
		t.Errorf("warm run of figure 6-1 allocates %.0f objects, want <= %d", allocs, maxWarmRunAllocs)
	}
}
