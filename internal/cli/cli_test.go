package cli_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"visualinux/internal/cli"
	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
)

func newRunner(t *testing.T) (*cli.Runner, *bytes.Buffer) {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	var out bytes.Buffer
	r := cli.New(s, &out)
	// In-memory files for save/load and vplot file.
	files := map[string][]byte{}
	r.ReadFile = func(p string) ([]byte, error) {
		d, ok := files[p]
		if !ok {
			return nil, fmt.Errorf("no file %s", p)
		}
		return d, nil
	}
	r.WriteFile = func(p string, d []byte) error { files[p] = d; return nil }
	return r, &out
}

func run(t *testing.T, r *cli.Runner, out *bytes.Buffer, cmd string) string {
	t.Helper()
	out.Reset()
	if !r.Exec(cmd) {
		t.Fatalf("%q terminated the session", cmd)
	}
	return out.String()
}

func TestBasicFlow(t *testing.T) {
	r, out := newRunner(t)
	if got := run(t, r, out, "figures"); !strings.Contains(got, "7-1") {
		t.Errorf("figures: %q", got)
	}
	if got := run(t, r, out, "vplot 7-1"); !strings.Contains(got, "pane 1") {
		t.Errorf("vplot: %q", got)
	}
	if got := run(t, r, out, "vctrl show 1"); !strings.Contains(got, "RunQueue") {
		t.Errorf("show: %.200q", got)
	}
	// The run-queue figure's tasks expose ppid; chat against that member.
	if got := run(t, r, out, "vchat shrink tasks whose ppid is not 1"); !strings.Contains(got, "UPDATE") {
		t.Errorf("vchat: %q", got)
	}
	// Chatting about a member the pane does not display must fail loudly.
	if got := run(t, r, out, "vchat shrink tasks that have no address space"); !strings.Contains(got, "error") {
		t.Errorf("ungroundable chat accepted: %q", got)
	}
	if got := run(t, r, out, "help"); !strings.Contains(got, "vplot") {
		t.Errorf("help: %q", got)
	}
	if got := run(t, r, out, "nonsense"); !strings.Contains(got, "unknown command") {
		t.Errorf("unknown: %q", got)
	}
	if got := run(t, r, out, "vplot nope-figure"); !strings.Contains(got, "error") {
		t.Errorf("bad figure: %q", got)
	}
	if r.Exec("quit") {
		t.Error("quit did not terminate")
	}
}

func TestCasesAndFiles(t *testing.T) {
	r, out := newRunner(t)
	for name := range cli.CaseStudies {
		if got := run(t, r, out, "vplot case "+name); strings.Contains(got, "error") {
			t.Errorf("case %s: %q", name, got)
		}
	}
	// vplot file: via the injected filesystem.
	prog := "define T as Box<task_struct> [ Text pid ]\nx = T(${&init_task})\nplot @x\n"
	if err := r.WriteFile("prog.vcl", []byte(prog)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, r, out, "vplot file prog.vcl"); strings.Contains(got, "error") {
		t.Errorf("vplot file: %q", got)
	}
	if got := run(t, r, out, "vplot file missing.vcl"); !strings.Contains(got, "error") {
		t.Errorf("missing file: %q", got)
	}
}

func TestAutoSynthesis(t *testing.T) {
	r, out := newRunner(t)
	got := run(t, r, out, "vplot auto pipe_inode_info &dirty_pipe")
	if !strings.Contains(got, "define PipeInodeInfo") {
		t.Errorf("auto: %q", got)
	}
	if !strings.Contains(got, "pane 1") {
		t.Errorf("auto did not plot: %q", got)
	}
}

func TestSaveLoad(t *testing.T) {
	r, out := newRunner(t)
	run(t, r, out, "vplot 3-4")
	run(t, r, out, "vctrl viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true")
	if got := run(t, r, out, "save sess.json"); !strings.Contains(got, "saved") {
		t.Fatalf("save: %q", got)
	}

	// Fresh runner sharing the file map? Each runner has its own; copy.
	k2 := kernelsim.Build(kernelsim.Options{})
	s2 := core.NewSession(k2.Target(), nil)
	var out2 bytes.Buffer
	r2 := cli.New(s2, &out2)
	r2.ReadFile = r.ReadFile
	out2.Reset()
	r2.Exec("load sess.json")
	if got := out2.String(); !strings.Contains(got, "pane 1") {
		t.Fatalf("load: %q", got)
	}
	// The collapsed attribute survived on pid 1's box.
	p1, _ := r2.Session.Tree.Pane(1)
	restored := false
	for _, b := range p1.Graph.ByType("task_struct") {
		if pid, ok := b.Member("pid"); ok && pid.Raw == 1 && b.Collapsed() {
			restored = true
		}
	}
	if !restored {
		t.Errorf("restored pane lost customization")
	}
}

func TestVChatSpecificPane(t *testing.T) {
	r, out := newRunner(t)
	run(t, r, out, "vplot 3-4")
	run(t, r, out, "vplot 7-1")
	got := run(t, r, out, "vchat @2 shrink task_struct entries except for pid 101 and 103")
	if !strings.Contains(got, "UPDATE") {
		t.Errorf("vchat @2: %q", got)
	}
	// pane 1 untouched
	p1, _ := r.Session.Tree.Pane(1)
	for _, b := range p1.Graph.ByType("task_struct") {
		if b.Collapsed() {
			t.Errorf("pane 1 box collapsed by pane-2 chat")
		}
	}
}

func TestVTrace(t *testing.T) {
	// Without an observer, the command reports tracing is off.
	r, out := newRunner(t)
	if got := run(t, r, out, "vtrace"); !strings.Contains(got, "tracing is off") {
		t.Errorf("unobserved vtrace: %q", got)
	}

	// Observed session: vtrace before any plot, then after.
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	s := core.NewSession(target.NewObservedSnapshot(k.Target(), o), o)
	var buf bytes.Buffer
	ro := cli.New(s, &buf)
	if got := run(t, ro, &buf, "vtrace"); !strings.Contains(got, "no extractions traced yet") {
		t.Errorf("vtrace before plots: %q", got)
	}
	if got := run(t, ro, &buf, "vplot 7-1"); !strings.Contains(got, "pane 1") {
		t.Fatalf("vplot: %q", got)
	}
	for _, cmd := range []string{"vtrace", "vtrace 1"} {
		got := run(t, ro, &buf, cmd)
		for _, want := range []string{"pane 1:", "vplot:", "target.read"} {
			if !strings.Contains(got, want) {
				t.Errorf("%s output missing %q:\n%s", cmd, want, got)
			}
		}
	}
	if got := run(t, ro, &buf, "vtrace 99"); !strings.Contains(got, "no trace for pane 99") {
		t.Errorf("vtrace 99: %q", got)
	}
	if got := run(t, ro, &buf, "vtrace bogus"); !strings.Contains(got, "usage:") {
		t.Errorf("vtrace bogus: %q", got)
	}
	if got := run(t, ro, &buf, "help"); !strings.Contains(got, "vtrace") {
		t.Errorf("help lacks vtrace: %q", got)
	}
}
