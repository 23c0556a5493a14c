// Benchmark harness: one bench per paper artifact, plus the ablations
// called out in DESIGN.md.
//
//	BenchmarkTable2Extract/*   — per-figure ViewCL extraction (Table 2 set)
//	BenchmarkTable4GDB/*       — Table 4, "GDB (QEMU)" column (wall time)
//	BenchmarkTable4KGDB/*      — Table 4, "KGDB (rpi-400)" column; the
//	                             modeled latency is reported as the custom
//	                             metric kgdb-ms/op (virtual clock)
//	BenchmarkTable3Synthesis   — vchat NL -> ViewQL synthesis
//	BenchmarkFig2Focus         — cross-pane focus search
//	BenchmarkFig4Customize     — maple-tree ViewQL customization
//	BenchmarkFig7DirtyPipe     — REACHABLE-set customization
//	BenchmarkAblation*         — prune/flatten/distill design choices
//	BenchmarkExprShare         — the §5.4 bottleneck claim: ${...} eval cost
//	BenchmarkSteadyRoundReuse  — incremental rounds over an unchanged target
//
// The engine pairs (BenchmarkCompiledCold/BenchmarkInterpretedCold,
// BenchmarkSteadyRoundCompiled/BenchmarkSteadyRoundInterpreted) live in
// internal/viewcl, beside the tree-walking oracle they compare against.
package visualinux_test

import (
	"fmt"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/expr"
	"visualinux/internal/kernelsim"
	"visualinux/internal/perf"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vchat"
	"visualinux/internal/vclstdlib"
)

var benchKernel *kernelsim.Kernel

func kernel() *kernelsim.Kernel {
	if benchKernel == nil {
		benchKernel = kernelsim.Build(kernelsim.Options{})
	}
	return benchKernel
}

func BenchmarkKernelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kernelsim.Build(kernelsim.Options{})
	}
}

// BenchmarkTable2Extract measures pure extraction per ULK figure.
func BenchmarkTable2Extract(b *testing.B) {
	k := kernel()
	for _, fig := range vclstdlib.Figures() {
		fig := fig
		b.Run(fig.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSession(k.Target(), nil)
				if _, err := s.VPlot(fig.ID, fig.Program); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4GDB is the Table 4 fast column.
func BenchmarkTable4GDB(b *testing.B) {
	k := kernel()
	for _, fig := range vclstdlib.Figures() {
		fig := fig
		b.Run(fig.ID, func(b *testing.B) {
			var objs int
			var bytes uint64
			for i := 0; i < b.N; i++ {
				row, err := perf.MeasureFigure(k, fig)
				if err != nil {
					b.Fatal(err)
				}
				objs, bytes = row.Objects, uint64(row.KBytes*1024)
			}
			b.ReportMetric(float64(objs), "objects")
			b.ReportMetric(float64(bytes), "bytes-read")
		})
	}
}

// BenchmarkTable4KGDB is the Table 4 slow column; kgdb-ms/op carries the
// modeled serial latency (virtual clock — wall ns/op stays small).
func BenchmarkTable4KGDB(b *testing.B) {
	k := kernel()
	for _, fig := range vclstdlib.Figures() {
		fig := fig
		b.Run(fig.ID, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				row, err := perf.MeasureFigureKGDB(k, fig, target.DefaultKGDB)
				if err != nil {
					b.Fatal(err)
				}
				total += row.TotalMS
			}
			b.ReportMetric(total/float64(b.N), "kgdb-ms/op")
		})
	}
}

// BenchmarkTable4KGDBUncached is the pre-snapshot-cache baseline: every
// field read is its own modeled round trip. Compare kgdb-ms/op against
// BenchmarkTable4KGDB to see what the page cache + coalescing buy.
func BenchmarkTable4KGDBUncached(b *testing.B) {
	k := kernel()
	for _, fig := range vclstdlib.Figures() {
		fig := fig
		b.Run(fig.ID, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				row, err := perf.MeasureFigureKGDBUncached(k, fig, target.DefaultKGDB)
				if err != nil {
					b.Fatal(err)
				}
				total += row.TotalMS
			}
			b.ReportMetric(total/float64(b.N), "kgdb-ms/op")
		})
	}
}

// BenchmarkTable4RSP measures extraction through a real GDB-RSP loopback
// socket — the third target personality, with genuine per-read round trips.
func BenchmarkTable4RSP(b *testing.B) {
	sess, err := perf.NewRSPSession(kernel())
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for _, id := range []string{"7-1", "3-6", "9-2"} {
		fig, _ := vclstdlib.FigureByID(id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sess.MeasureFigureRSP(fig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Synthesis measures NL -> ViewQL synthesis across all 10
// Table 3 objectives.
func BenchmarkTable3Synthesis(b *testing.B) {
	k := kernel()
	// Pre-extract each objective's graph once.
	var descs []string
	var graphs []*core.Session
	for _, fig := range vclstdlib.Figures() {
		if fig.Objective == nil {
			continue
		}
		s := core.NewSession(k.Target(), nil)
		if _, err := s.VPlot(fig.ID, fig.Program); err != nil {
			b.Fatal(err)
		}
		descs = append(descs, fig.Objective.Description)
		graphs = append(graphs, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(descs)
		p, _ := graphs[j].Tree.Pane(1)
		if _, err := vchat.Synthesize(p.Graph, descs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Focus measures the cross-pane focus search over two panes.
func BenchmarkFig2Focus(b *testing.B) {
	s := core.NewSession(kernel().Target(), nil)
	if _, err := s.VPlotFigure("3-4"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.VPlotFigure("7-1"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.VCtrl("focus pid=101"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Customize measures the maple-tree ViewQL customization.
func BenchmarkFig4Customize(b *testing.B) {
	k := kernel()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSession(k.Target(), nil)
		p, err := s.VPlot("maple", vclstdlib.MapleTreeProgram)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.ApplyViewQL(p.ID, vclstdlib.MapleTreeCustomization); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7DirtyPipe measures the REACHABLE set-difference ViewQL.
func BenchmarkFig7DirtyPipe(b *testing.B) {
	k := kernel()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := core.NewSession(k.Target(), nil)
		p, err := s.VPlot("dirtypipe", vclstdlib.DirtyPipeProgram)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.ApplyViewQL(p.ID, vclstdlib.DirtyPipeCustomization); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations -----------------------------------------------------------------

// BenchmarkAblationPrune contrasts extracting a heavily pruned task view
// against a "wide" view with many more fields — quantifying what prune buys.
func BenchmarkAblationPrune(b *testing.B) {
	k := kernel()
	pruned := `
define Task as Box<task_struct> [
    Text pid
    Container children: List(${@this->children}).forEach |n| {
        yield Task<task_struct.sibling>(@n)
    }
]
root = Task(${&init_task})
plot @root
`
	wide := `
define Task as Box<task_struct> [
    Text pid, tgid, comm, prio, static_prio, normal_prio
    Text utime, stime, start_time, exit_state, exit_code
    Text<u64:x> flags
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
    Text weight: ${@this->se.load.weight}
    Text sum_exec: ${@this->se.sum_exec_runtime}
    Container children: List(${@this->children}).forEach |n| {
        yield Task<task_struct.sibling>(@n)
    }
]
root = Task(${&init_task})
plot @root
`
	for _, c := range []struct{ name, prog string }{{"pruned", pruned}, {"wide", wide}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSession(k.Target(), nil)
				if _, err := s.VPlot(c.name, c.prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFlatten contrasts a flattened dot-path (one text item)
// against materializing every intermediate object as its own box.
func BenchmarkAblationFlatten(b *testing.B) {
	k := kernel()
	flat := `
define Task as Box<task_struct> [
    Text pid
    Text sb: ${@this->files->fdt->fd[3]->f_path.dentry->d_inode->i_sb->s_id}
]
root = Task(${find_task(100)})
plot @root
`
	deep := `
define SB as Box<super_block> [ Text s_id ]
define Inode as Box<inode> [ Text i_ino
    Link i_sb -> SB(${@this->i_sb}) ]
define Dentry as Box<dentry> [ Text name: d_iname
    Link d_inode -> Inode(${@this->d_inode}) ]
define File as Box<file> [ Text f_pos
    Link dentry -> Dentry(${@this->f_path.dentry}) ]
define Fdt as Box<fdtable> [ Text max_fds
    Link fd3 -> File(${@this->fd[3]}) ]
define Files as Box<files_struct> [ Text count
    Link fdt -> Fdt(${@this->fdt}) ]
define Task as Box<task_struct> [
    Text pid
    Link files -> Files(${@this->files})
]
root = Task(${find_task(100)})
plot @root
`
	for _, c := range []struct{ name, prog string }{{"flattened", flat}, {"materialized", deep}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSession(k.Target(), nil)
				if _, err := s.VPlot(c.name, c.prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistill contrasts reading the maple tree as a raw node
// graph against the Array.selectFrom distilled list (which piggybacks on
// the same extraction, so the delta is the distill pass itself).
func BenchmarkAblationDistill(b *testing.B) {
	k := kernel()
	raw := vclstdlib.Fig9_2 // includes the distilled view
	noDistill := `
define VMArea as Box<vm_area_struct> [
    Text<u64:x> vm_start, vm_end
]
define MapleLeaf as Box<maple_node> [
    Container slots: Array(${@this->mr64.slot}).forEach |s| {
        yield switch ${@s == 0} {
            case ${true}: NULL
            otherwise: VMArea(@s)
        }
    }
]
define MapleARange as Box<maple_node> [
    Container slots: Array(${@this->ma64.slot}).forEach |s| {
        yield switch ${xa_is_node(@s)} {
            case ${false}: NULL
            otherwise: switch ${mte_is_leaf(@s)} {
                case ${true}: MapleLeaf(${mte_to_node(@s)})
                otherwise: MapleARange(${mte_to_node(@s)})
            }
        }
    }
]
define MM as Box<mm_struct> [
    Link mt -> switch ${mte_is_leaf(@this->mm_mt.ma_root)} {
        case ${true}: MapleLeaf(${mte_to_node(@this->mm_mt.ma_root)})
        otherwise: MapleARange(${mte_to_node(@this->mm_mt.ma_root)})
    }
]
root = MM(${find_task(100)->mm})
plot @root
`
	for _, c := range []struct{ name, prog string }{{"with-distill", raw}, {"tree-only", noDistill}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSession(k.Target(), nil)
				if _, err := s.VPlot(c.name, c.prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExprShare isolates the §5.4 bottleneck claim: the dominant cost
// of extraction is C-expression evaluation. It measures the raw expression
// evaluator on the hottest expression shape (pointer-chasing member reads).
func BenchmarkExprShare(b *testing.B) {
	k := kernel()
	env := expr.NewEnv(k.Target())
	kernelsim.RegisterHelpers(env)
	task := k.ByPID[100]
	env.Vars["this"] = expr.MakePointer(k.Reg.MustLookup("task_struct"), task.Addr)
	ex := expr.MustParse("@this->files->fdt->fd[3]->f_path.dentry->d_inode->i_size", env.Types())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderText measures the rendering path (claimed negligible).
func BenchmarkRenderText(b *testing.B) {
	s := core.NewSession(kernel().Target(), nil)
	if _, err := s.VPlotFigure("9-2"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.VCtrl("show 1 text"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaneJSON measures pane serialization as the server does it on a
// cache miss, over the 20 stdlib panes of a procs 5 / churn 4 session:
// encode appends each pane's JSON into a buffer presized from its previous
// body, and quote turns each body into the JSON string an SSE event carries.
func BenchmarkPaneJSON(b *testing.B) {
	m := core.NewSessionManager(core.ManagerOptions{}, nil)
	ms, err := m.Create("bench", core.SessionOptions{Kernel: kernelsim.Options{Processes: 5, Churn: 4}})
	if err != nil {
		b.Fatal(err)
	}
	rr, err := ms.Round()
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(rr))
	for i, r := range rr {
		bodies[i] = render.AppendJSON(nil, r.Pane.Graph)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, r := range rr {
				prev := bodies[j]
				bodies[j] = render.AppendJSON(make([]byte, 0, len(prev)+len(prev)/8), r.Pane.Graph)
			}
		}
	})
	b.Run("quote", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				benchSink = render.AppendJSONString(make([]byte, 0, len(body)+len(body)/4+2), body)
			}
		}
	})
}

var benchSink []byte

// BenchmarkWorkloadScaling sweeps the workload size for the fastest and the
// heaviest figure, showing extraction cost scales with state size.
func BenchmarkWorkloadScaling(b *testing.B) {
	for _, procs := range []int{2, 5, 10, 20} {
		procs := procs
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			k := kernelsim.Build(kernelsim.Options{Processes: procs})
			fig, _ := vclstdlib.FigureByID("3-4")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := perf.MeasureFigure(k, fig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatencyModelOverhead verifies the virtual clock adds negligible
// wall cost versus the raw target (so KGDB numbers are purely modeled).
func BenchmarkLatencyModelOverhead(b *testing.B) {
	k := kernel()
	lt := target.WithLatency(k.Target(), target.DefaultKGDB)
	buf := make([]byte, 8)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = k.Target().ReadMemory(k.InitTask.Addr, buf)
		}
	})
	b.Run("latency-virtual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lt.ReadMemory(k.InitTask.Addr, buf)
		}
	})
}

// BenchmarkSteadyRoundReuse measures the quiescent serving path: extractor
// rounds over an unchanged target, where every figure is served whole from
// its prior result — the path the zero-alloc work pins.
func BenchmarkSteadyRoundReuse(b *testing.B) {
	fig, ok := vclstdlib.FigureByID("7-1")
	if !ok {
		b.Fatal("figure 7-1 missing")
	}
	k := kernelsim.Build(kernelsim.Options{})
	x := core.NewIncrementalExtractor(k, k.Target(), []vclstdlib.Figure{fig}, nil)
	for i := 0; i < 2; i++ {
		if _, err := x.Round(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Round(); err != nil {
			b.Fatal(err)
		}
	}
}
