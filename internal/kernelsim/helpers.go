package kernelsim

import (
	"fmt"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/target"
)

// RegisterHelpers installs the kernel helper functions into an expression
// environment. These are the analogue of the paper's ~500 lines of GDB
// scripts that "expose kernel functions invisible to the debugger", such as
// static inline functions (cpu_rq, mte_to_node, ...). They only use the
// target interface, so they work on both the fast and latency targets.
func RegisterHelpers(env *expr.Env) {
	reg := env.Types()
	ulong := reg.MustLookup("unsigned long")
	boolT := ctypes.Bool8

	need := func(args []expr.Value, n int, name string) error {
		if len(args) != n {
			return fmt.Errorf("%s: want %d args, got %d", name, n, len(args))
		}
		return nil
	}

	// cpu_rq(cpu): address of the per-CPU run queue.
	env.RegisterFunc("cpu_rq", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "cpu_rq"); err != nil {
			return expr.Value{}, err
		}
		sym, ok := e.Target.LookupSymbol("runqueues")
		if !ok {
			return expr.Value{}, fmt.Errorf("cpu_rq: no runqueues symbol")
		}
		rqT := reg.MustLookup("rq")
		return expr.MakePointer(rqT, sym.Addr+args[0].Uint()*rqT.Size()), nil
	})

	// task_state(task*): human-readable scheduler state.
	env.RegisterFunc("task_state", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "task_state"); err != nil {
			return expr.Value{}, err
		}
		taskT := reg.MustLookup("task_struct")
		f, _ := taskT.FieldByName("__state")
		st, err := target.ReadUint(e.Target, args[0].Uint()+f.Offset, f.Type.Size())
		if err != nil {
			return expr.Value{}, err
		}
		return expr.MakeString(TaskStateName(st)), nil
	})

	// Maple tree primitives (lib/maple_tree.c statics).
	env.RegisterFunc("mte_to_node", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "mte_to_node"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakePointer(reg.MustLookup("maple_node"), MtToNode(args[0].Uint())), nil
	})
	env.RegisterFunc("mte_node_type", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "mte_node_type"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakeInt(reg.MustLookup("maple_type"), MtNodeType(args[0].Uint())), nil
	})
	env.RegisterFunc("mte_is_leaf", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "mte_is_leaf"); err != nil {
			return expr.Value{}, err
		}
		t := MtNodeType(args[0].Uint())
		v := uint64(0)
		if t == MapleLeaf64 || t == MapleDense {
			v = 1
		}
		return expr.Value{Type: boolT, Bits: v}, nil
	})
	env.RegisterFunc("mt_slot_count", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "mt_slot_count"); err != nil {
			return expr.Value{}, err
		}
		n := uint64(MapleR64Slots)
		if args[0].Uint() == MapleArange64 {
			n = MapleA64Slots
		}
		return expr.MakeInt(ulong, n), nil
	})
	env.RegisterFunc("mt_node_max", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "mt_node_max"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakeInt(ulong, ^uint64(0)), nil
	})

	// XArray primitives (include/linux/xarray.h statics).
	env.RegisterFunc("xa_is_node", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "xa_is_node"); err != nil {
			return expr.Value{}, err
		}
		v := uint64(0)
		if XaIsNode(args[0].Uint()) {
			v = 1
		}
		return expr.Value{Type: boolT, Bits: v}, nil
	})
	env.RegisterFunc("xa_to_node", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "xa_to_node"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakePointer(reg.MustLookup("xa_node"), XaToNode(args[0].Uint())), nil
	})
	env.RegisterFunc("xa_is_value", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "xa_is_value"); err != nil {
			return expr.Value{}, err
		}
		v := uint64(0)
		if XaIsValue(args[0].Uint()) {
			v = 1
		}
		return expr.Value{Type: boolT, Bits: v}, nil
	})
	env.RegisterFunc("xa_to_value", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "xa_to_value"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakeInt(ulong, XaToValue(args[0].Uint())), nil
	})

	// Page helpers.
	env.RegisterFunc("pfn_to_page", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "pfn_to_page"); err != nil {
			return expr.Value{}, err
		}
		pageT := reg.MustLookup("page")
		return expr.MakePointer(pageT, vmemmapBase+args[0].Uint()*pageT.Size()), nil
	})
	env.RegisterFunc("page_to_pfn", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "page_to_pfn"); err != nil {
			return expr.Value{}, err
		}
		pageT := reg.MustLookup("page")
		return expr.MakeInt(ulong, (args[0].Uint()-vmemmapBase)/pageT.Size()), nil
	})
	env.RegisterFunc("PageAnon", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "PageAnon"); err != nil {
			return expr.Value{}, err
		}
		pageT := reg.MustLookup("page")
		f, _ := pageT.FieldByName("mapping")
		m, err := target.ReadUint(e.Target, args[0].Uint()+f.Offset, 8)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.Value{Type: boolT, Bits: m & pageMappingAnon}, nil
	})
	env.RegisterFunc("page_anon_vma", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "page_anon_vma"); err != nil {
			return expr.Value{}, err
		}
		pageT := reg.MustLookup("page")
		f, _ := pageT.FieldByName("mapping")
		m, err := target.ReadUint(e.Target, args[0].Uint()+f.Offset, 8)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.MakePointer(reg.MustLookup("anon_vma"), m&^uint64(3)), nil
	})

	// Function-pointer name (GDB's `info symbol`).
	env.RegisterFunc("symbol_name", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "symbol_name"); err != nil {
			return expr.Value{}, err
		}
		if n, ok := e.Target.SymbolAt(args[0].Uint()); ok {
			return expr.MakeString(n), nil
		}
		return expr.MakeString(fmt.Sprintf("0x%x", args[0].Uint())), nil
	})

	// i_mode classification helpers for ViewQL-friendly fields.
	env.RegisterFunc("inode_is_reg", modeCheck(reg, SIFREG))
	env.RegisterFunc("inode_is_dir", modeCheck(reg, SIFDIR))
	env.RegisterFunc("inode_is_sock", modeCheck(reg, SIFSOCK))
	env.RegisterFunc("inode_is_fifo", modeCheck(reg, SIFIFO))

	// task_cpu(task*): the CPU a task last ran on.
	env.RegisterFunc("task_cpu", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "task_cpu"); err != nil {
			return expr.Value{}, err
		}
		taskT := reg.MustLookup("task_struct")
		f, _ := taskT.FieldByName("cpu")
		v, err := target.ReadUint(e.Target, args[0].Uint()+f.Offset, f.Type.Size())
		if err != nil {
			return expr.Value{}, err
		}
		return expr.MakeInt(reg.MustLookup("unsigned int"), v), nil
	})

	// find_task(pid): walk the global task list like for_each_process,
	// checking each thread group. GDB-script equivalent of pid_task().
	env.RegisterFunc("find_task", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "find_task"); err != nil {
			return expr.Value{}, err
		}
		want := args[0].Uint()
		taskT := reg.MustLookup("task_struct")
		initSym, ok := e.Target.LookupSymbol("init_task")
		if !ok {
			return expr.Value{}, fmt.Errorf("find_task: no init_task")
		}
		pidF, _ := taskT.FieldByName("pid")
		tasksF, _ := taskT.FieldByName("tasks")
		tgF, _ := taskT.FieldByName("thread_group")
		check := func(task uint64) (uint64, error) {
			return target.ReadUint(e.Target, task+pidF.Offset, pidF.Type.Size())
		}
		head := initSym.Addr + tasksF.Offset
		cur := head
		// One budget bounds both walks: a corrupted list that cycles
		// without returning to its head costs at most this many steps.
		budget := 65536
		for ; budget > 0; budget-- {
			task := cur - tasksF.Offset
			if pid, err := check(task); err == nil && pid == want {
				return expr.MakePointer(taskT, task), nil
			}
			// scan the thread group of this leader
			tgHead := cur - tasksF.Offset + tgF.Offset
			tg, err := target.ReadU64(e.Target, tgHead)
			if err == nil {
				for ; budget > 0 && tg != tgHead && tg != 0; budget-- {
					tTask := tg - tgF.Offset
					if pid, err := check(tTask); err == nil && pid == want {
						return expr.MakePointer(taskT, tTask), nil
					}
					tg, _ = target.ReadU64(e.Target, tg)
				}
			}
			next, err := target.ReadU64(e.Target, cur)
			if err != nil {
				return expr.Value{}, err
			}
			cur = next
			if cur == head {
				break
			}
		}
		return expr.Value{Type: taskT.PointerTo()}, nil // NULL: not found
	})

	// task_anon_vma(task*): the anon_vma of the task's first anonymous
	// VMA, found by walking the mm's maple tree (Fig 17-1 entry point).
	env.RegisterFunc("task_anon_vma", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "task_anon_vma"); err != nil {
			return expr.Value{}, err
		}
		avT := reg.MustLookup("anon_vma")
		taskT := reg.MustLookup("task_struct")
		mmF, _ := taskT.FieldByName("mm")
		mm, err := target.ReadU64(e.Target, args[0].Uint()+mmF.Offset)
		if err != nil || mm == 0 {
			return expr.Value{Type: avT.PointerTo()}, err
		}
		mmT := reg.MustLookup("mm_struct")
		mtF, _ := mmT.FieldByName("mm_mt")
		mtT := reg.MustLookup("maple_tree")
		rootF, _ := mtT.FieldByName("ma_root")
		root, err := target.ReadU64(e.Target, mm+mtF.Offset+rootF.Offset)
		if err != nil {
			return expr.Value{}, err
		}
		vmaT := reg.MustLookup("vm_area_struct")
		avF, _ := vmaT.FieldByName("anon_vma")
		nodeT := reg.MustLookup("maple_node")
		slotF, err2 := nodeT.ResolvePath("mr64.slot")
		if err2 != nil {
			return expr.Value{}, err2
		}
		aslotF, _ := nodeT.ResolvePath("ma64.slot")
		var walk func(enode uint64, depth int) (uint64, error)
		walk = func(enode uint64, depth int) (uint64, error) {
			if depth > 8 {
				return 0, nil
			}
			node := MtToNode(enode)
			leaf := MtNodeType(enode) == MapleLeaf64
			base, n := node+aslotF.Offset, uint64(MapleA64Slots)
			if leaf {
				base, n = node+slotF.Offset, uint64(MapleR64Slots)
			}
			for i := uint64(0); i < n; i++ {
				entry, err := target.ReadU64(e.Target, base+i*8)
				if err != nil || entry == 0 {
					continue
				}
				if !leaf {
					if XaIsNode(entry) {
						if found, err := walk(entry, depth+1); err != nil || found != 0 {
							return found, err
						}
					}
					continue
				}
				av, err := target.ReadU64(e.Target, entry+avF.Offset)
				if err == nil && av != 0 {
					return av, nil
				}
			}
			return 0, nil
		}
		if !XaIsNode(root) {
			return expr.Value{Type: avT.PointerTo()}, nil
		}
		av, err := walk(root, 0)
		if err != nil {
			return expr.Value{}, err
		}
		return expr.MakePointer(avT, av), nil
	})

	// anon_first_page(anon_vma*): scan the vmemmap for the first page
	// whose mapping is the PAGE_MAPPING_ANON-tagged anon_vma.
	env.RegisterFunc("anon_first_page", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "anon_first_page"); err != nil {
			return expr.Value{}, err
		}
		pageT := reg.MustLookup("page")
		mapF, _ := pageT.FieldByName("mapping")
		maxSym, ok := e.Target.LookupSymbol("max_pfn")
		if !ok {
			return expr.Value{}, fmt.Errorf("anon_first_page: no max_pfn")
		}
		maxPfn, err := target.ReadU64(e.Target, maxSym.Addr)
		if err != nil {
			return expr.Value{}, err
		}
		want := args[0].Uint() | pageMappingAnon
		for pfn := uint64(1); pfn < maxPfn; pfn++ {
			pg := vmemmapBase + pfn*pageT.Size()
			m, err := target.ReadU64(e.Target, pg+mapF.Offset)
			if err == nil && m == want {
				return expr.MakePointer(pageT, pg), nil
			}
		}
		return expr.Value{Type: pageT.PointerTo()}, nil
	})

	// signal number to name, for Fig 11-1.
	env.RegisterFunc("signame", func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if err := need(args, 1, "signame"); err != nil {
			return expr.Value{}, err
		}
		return expr.MakeString(SigName(int(args[0].Int()))), nil
	})
}

// TaskStateName renders a __state bitmask the way ps(1) spells it.
func TaskStateName(st uint64) string {
	switch {
	case st == TaskRunning:
		return "RUNNING"
	case st&TaskInterruptible != 0:
		return "INTERRUPTIBLE"
	case st&TaskUninterruptible != 0:
		return "UNINTERRUPTIBLE"
	case st&TaskStopped != 0:
		return "STOPPED"
	case st&TaskTraced != 0:
		return "TRACED"
	case st&ExitZombie != 0:
		return "ZOMBIE"
	case st&ExitDead != 0 || st&TaskDead != 0:
		return "DEAD"
	default:
		return fmt.Sprintf("0x%x", st)
	}
}

var sigNames = map[int]string{
	1: "SIGHUP", 2: "SIGINT", 3: "SIGQUIT", 4: "SIGILL", 5: "SIGTRAP",
	6: "SIGABRT", 7: "SIGBUS", 8: "SIGFPE", 9: "SIGKILL", 10: "SIGUSR1",
	11: "SIGSEGV", 12: "SIGUSR2", 13: "SIGPIPE", 14: "SIGALRM", 15: "SIGTERM",
	17: "SIGCHLD", 18: "SIGCONT", 19: "SIGSTOP", 20: "SIGTSTP",
}

// SigName returns the conventional name of a signal number.
func SigName(n int) string {
	if s, ok := sigNames[n]; ok {
		return s
	}
	return fmt.Sprintf("SIG%d", n)
}

func modeCheck(reg *ctypes.Registry, bits uint64) expr.Func {
	return func(e *expr.Env, args []expr.Value) (expr.Value, error) {
		if len(args) != 1 {
			return expr.Value{}, fmt.Errorf("mode check: want 1 arg")
		}
		inodeT := reg.MustLookup("inode")
		f, _ := inodeT.FieldByName("i_mode")
		m, err := target.ReadUint(e.Target, args[0].Uint()+f.Offset, f.Type.Size())
		if err != nil {
			return expr.Value{}, err
		}
		v := uint64(0)
		if m&0xF000 == bits {
			v = 1
		}
		return expr.Value{Type: ctypes.Bool8, Bits: v}, nil
	}
}

// FlagBit names one bit of a flags word, for the flag:<id> text decorator.
type FlagBit struct {
	Mask uint64
	Name string
}

// FlagSets returns the named flag vocabularies of the simulated kernel, fed
// to ViewCL's flag decorator registry.
func FlagSets() map[string][]FlagBit {
	return map[string][]FlagBit{
		"vm_flags": {
			{VMRead, "VM_READ"}, {VMWrite, "VM_WRITE"}, {VMExec, "VM_EXEC"},
			{VMShared, "VM_SHARED"}, {VMMayRead, "VM_MAYREAD"},
			{VMMayWrite, "VM_MAYWRITE"}, {VMGrowsDown, "VM_GROWSDOWN"},
		},
		"pipe_buf_flags": {
			{PipeBufFlagLRU, "PIPE_BUF_FLAG_LRU"},
			{PipeBufFlagAtomic, "PIPE_BUF_FLAG_ATOMIC"},
			{PipeBufFlagGift, "PIPE_BUF_FLAG_GIFT"},
			{PipeBufFlagPacket, "PIPE_BUF_FLAG_PACKET"},
			{PipeBufFlagCanMerge, "PIPE_BUF_FLAG_CAN_MERGE"},
		},
		"page_flags": {
			{PGLocked, "PG_locked"}, {PGDirty, "PG_dirty"}, {PGLRU, "PG_lru"},
			{PGUptodate, "PG_uptodate"}, {PGSlab, "PG_slab"},
			{PGBuddy, "PG_buddy"}, {PGSwapCache, "PG_swapcache"},
		},
		"task_flags": {
			{0x00000002, "PF_IDLE"}, {0x00000004, "PF_EXITING"},
			{0x00200000, "PF_KTHREAD"}, {0x00000100, "PF_WQ_WORKER"},
		},
	}
}
