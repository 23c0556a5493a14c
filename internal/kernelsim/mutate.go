package kernelsim

import (
	"fmt"
	"sort"
)

// State mutations. The paper's debugging sessions are interactive: the
// developer steps the kernel and re-plots, watching the figure evolve
// (§5.3: "This figure evolves as the debugging process proceeds"). These
// transitions mutate the simulated state the way the corresponding kernel
// paths would, keeping every derived structure consistent — and, like the
// real mm, *deferring freed maple nodes to the RCU callback list*, which
// is exactly the mechanism behind CVE-2023-3269.

// SpawnTask forks a new process under parentPID and enqueues it on a CPU's
// run queue. Returns the new task.
func (k *Kernel) SpawnTask(pid int, comm string, parentPID int) (Obj, error) {
	if _, exists := k.ByPID[pid]; exists {
		return Obj{}, fmt.Errorf("kernelsim: pid %d already exists", pid)
	}
	parent, ok := k.ByPID[parentPID]
	if !ok {
		return Obj{}, fmt.Errorf("kernelsim: no parent pid %d", parentPID)
	}
	t := k.NewTask(TaskSpec{
		PID: pid, Comm: comm, Parent: parent,
		State: TaskRunning, VRuntime: 5_000_000 + uint64(pid)*1000,
	})
	sig, hand := k.MkSignalStructs(1, nil)
	t.SetObj("signal", sig)
	t.SetObj("sighand", hand)
	t.SetObj("files", k.MkFiles(nil))
	k.requeueCPU(0)
	return t, nil
}

// ExitTask marks a task zombie and dequeues it from its run queue, like
// do_exit before the parent reaps it.
func (k *Kernel) ExitTask(pid int) error {
	t, ok := k.ByPID[pid]
	if !ok {
		return fmt.Errorf("kernelsim: no pid %d", pid)
	}
	t.Set("__state", 0)
	t.Set("exit_state", ExitZombie)
	t.Set("exit_code", 0)
	t.Set("se.on_rq", 0)
	t.Set("on_rq", 0)
	cpu := t.Get("cpu")
	k.requeueCPU(cpu)
	return nil
}

// requeueCPU rebuilds a CPU's CFS red-black tree from the current runnable
// population (the enqueue/dequeue paths collapsed into one rebuild).
func (k *Kernel) requeueCPU(cpu uint64) {
	type ent struct {
		node, vr uint64
	}
	var es []ent
	for _, t := range k.Tasks {
		if t.Get("pid") == 0 || t.Get("__state") != TaskRunning || t.Get("exit_state") != 0 {
			continue
		}
		if t.Get("cpu") != cpu {
			// Newly spawned tasks land on the rebuilt CPU.
			if t.Get("on_rq") != 0 {
				continue
			}
			t.Set("cpu", cpu)
		}
		t.Set("on_rq", 1)
		t.Set("se.on_rq", 1)
		es = append(es, ent{node: t.FieldAddr("se.run_node"), vr: t.Get("se.vruntime")})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].vr < es[j].vr })
	nodes := make([]uint64, len(es))
	for i, e := range es {
		nodes[i] = e.node
	}
	rq := k.Runqueues.Index(cpu)
	k.BuildRBTree(rq.FieldAddr("cfs.tasks_timeline"), nodes, true)
	rq.Set("cfs.nr_running", uint64(len(es)))
	rq.Set("nr_running", uint64(len(es)))
}

// collectMapleNodes gathers every node address of an mm's current maple
// tree (the set that a rebuild replaces).
func (k *Kernel) collectMapleNodes(mm Obj) []uint64 {
	var out []uint64
	root := mm.Field("mm_mt").Get("ma_root")
	if !XaIsNode(root) {
		return out
	}
	var walk func(enode uint64)
	walk = func(enode uint64) {
		node := MtToNode(enode)
		out = append(out, node)
		if MtNodeType(enode) == MapleLeaf64 {
			return
		}
		obj := k.At("maple_node", node)
		for s := uint64(0); s < MapleA64Slots; s++ {
			e, _ := k.Mem.ReadU64(obj.FieldAddr("ma64.slot") + s*8)
			if e != 0 && XaIsNode(e) {
				walk(e)
			}
		}
	}
	walk(root)
	return out
}

// rebuildMM rebuilds the mm's maple tree from the tracked mapping set,
// queueing every replaced maple node on CPU 0's RCU callback list with
// mt_free_rcu — the deferred free that opens the StackRot window.
func (k *Kernel) rebuildMM(mm Obj) {
	old := k.collectMapleNodes(mm)
	vmas := k.mmVMAs[mm.Addr]
	sort.Slice(vmas, func(i, j int) bool { return vmas[i].start < vmas[j].start })
	entries := make([]MapleEntry, 0, len(vmas))
	for _, mv := range vmas {
		entries = append(entries, MapleEntry{First: mv.start, Last: mv.end - 1, Ptr: mv.vma.Addr})
	}
	k.BuildMapleTree(mm.Field("mm_mt"), entries)
	mm.Set("map_count", uint64(len(vmas)))
	for _, node := range old {
		k.rcuEnqueue(0, k.At("maple_node", node).FieldAddr("rcu"), "mt_free_rcu")
	}
}

// MapRegion mmaps [start,end) into pid's address space (anonymous if file
// is empty), rebuilding the maple tree. The replaced nodes go to RCU.
func (k *Kernel) MapRegion(pid int, start, end, flags uint64, file Obj) (Obj, error) {
	t, ok := k.ByPID[pid]
	if !ok {
		return Obj{}, fmt.Errorf("kernelsim: no pid %d", pid)
	}
	mmAddr := t.Get("mm")
	if mmAddr == 0 {
		return Obj{}, fmt.Errorf("kernelsim: pid %d has no mm", pid)
	}
	if start >= end || start&(pageSize-1) != 0 || end&(pageSize-1) != 0 {
		return Obj{}, fmt.Errorf("kernelsim: bad range [%#x,%#x)", start, end)
	}
	mm := k.At("mm_struct", mmAddr)
	for _, mv := range k.mmVMAs[mm.Addr] {
		if start < mv.end && mv.start < end {
			return Obj{}, fmt.Errorf("kernelsim: range overlaps [%#x,%#x)", mv.start, mv.end)
		}
	}
	vma := k.Alloc("vm_area_struct")
	vma.Set("vm_start", start)
	vma.Set("vm_end", end)
	vma.Set("vm_flags", flags)
	vma.SetObj("vm_mm", mm)
	k.InitList(vma.FieldAddr("anon_vma_chain"))
	if !file.IsNil() {
		vma.SetObj("vm_file", file)
		mapping := k.At("address_space", file.Get("f_mapping"))
		k.attachIMmap(mapping, vma)
	}
	k.mmVMAs[mm.Addr] = append(k.mmVMAs[mm.Addr], mappedVMA{start: start, end: end, vma: vma})
	k.rebuildMM(mm)
	mm.Set("total_vm", mm.Get("total_vm")+((end-start)>>pageShift))
	return vma, nil
}

// UnmapRegion munmaps the mapping starting at start from pid's address
// space. The maple rebuild sends the replaced nodes to the RCU list.
func (k *Kernel) UnmapRegion(pid int, start uint64) error {
	t, ok := k.ByPID[pid]
	if !ok {
		return fmt.Errorf("kernelsim: no pid %d", pid)
	}
	mm := k.At("mm_struct", t.Get("mm"))
	vmas := k.mmVMAs[mm.Addr]
	idx := -1
	for i, mv := range vmas {
		if mv.start == start {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("kernelsim: no mapping at %#x", start)
	}
	k.mmVMAs[mm.Addr] = append(vmas[:idx], vmas[idx+1:]...)
	k.rebuildMM(mm)
	return nil
}

// SendSignal queues a signal on pid's private pending list, like
// __send_signal with a freshly allocated sigqueue.
func (k *Kernel) SendSignal(pid, sig, fromPid int) error {
	t, ok := k.ByPID[pid]
	if !ok {
		return fmt.Errorf("kernelsim: no pid %d", pid)
	}
	q := k.Alloc("sigqueue")
	q.Set("si_signo", uint64(sig))
	q.Set("si_code", 0)
	q.Set("si_pid", uint64(fromPid))
	k.ListAddTail(t.FieldAddr("pending.list"), q.FieldAddr("list"))
	// set the bit in pending.signal (sigset word 0)
	sigAddr := t.FieldAddr("pending.signal.sig")
	old, _ := k.Mem.ReadU64(sigAddr)
	k.Mem.WriteU64(sigAddr, old|1<<(uint(sig)-1))
	return nil
}

// PipeWrite appends bytes to a pipe ring: merges into the head buffer when
// CAN_MERGE allows (this is the Dirty Pipe write primitive — against a
// spliced page-cache buffer it corrupts the file's page), else occupies a
// fresh slot with a new anonymous page.
func (k *Kernel) PipeWrite(pipe Obj, n uint64) error {
	head := pipe.Get("head")
	tail := pipe.Get("tail")
	ringSize := pipe.Get("ring_size")
	bufs := pipe.Get("bufs")
	bufT := k.typeOf("pipe_buffer")
	if head > tail {
		last := k.At("pipe_buffer", bufs+((head-1)&(ringSize-1))*bufT.Size())
		if last.Get("flags")&PipeBufFlagCanMerge != 0 {
			// Merge into the existing buffer's page — if that page belongs
			// to a file's page cache, mark it dirty: the corruption.
			last.Set("len", last.Get("len")+n)
			pg := k.At("page", last.Get("page"))
			if pg.Get("mapping") != 0 {
				pg.Set("flags", pg.Get("flags")|PGDirty)
			}
			return nil
		}
	}
	if head-tail >= ringSize {
		return fmt.Errorf("kernelsim: pipe full")
	}
	pg, _ := k.AllocPage()
	pg.Set("_refcount", 1)
	buf := k.At("pipe_buffer", bufs+(head&(ringSize-1))*bufT.Size())
	buf.SetObj("page", pg)
	buf.Set("len", n)
	buf.Set("offset", 0)
	buf.Set("flags", PipeBufFlagCanMerge)
	pipe.Set("head", head+1)
	return nil
}

// SpliceToPipe zero-copies a page-cache page of file into the pipe ring —
// copy_page_to_iter_pipe(). withBug leaves the stale CAN_MERGE flag in
// place (the CVE-2022-0847 omission); without it the flags are properly
// cleared.
func (k *Kernel) SpliceToPipe(file Obj, pageIndex uint64, pipe Obj, n uint64, withBug bool) error {
	mapping := k.At("address_space", file.Get("f_mapping"))
	// find the page in the cache
	var pageAddr uint64
	head := mapping.Field("i_pages").Get("xa_head")
	if head == 0 {
		return fmt.Errorf("kernelsim: empty page cache")
	}
	if !XaIsNode(head) {
		if pageIndex == 0 {
			pageAddr = head
		}
	} else {
		entry := head
		for {
			node := k.At("xa_node", XaToNode(entry))
			shift := node.Get("shift")
			slot := (pageIndex >> shift) & (XAChunkSize - 1)
			e, _ := k.Mem.ReadU64(node.FieldAddr("slots") + slot*8)
			if e == 0 {
				break
			}
			if shift == 0 || e&3 != 2 {
				pageAddr = e
				break
			}
			entry = e
		}
	}
	if pageAddr == 0 {
		return fmt.Errorf("kernelsim: page %d not in cache", pageIndex)
	}
	headIdx := pipe.Get("head")
	tail := pipe.Get("tail")
	ringSize := pipe.Get("ring_size")
	if headIdx-tail >= ringSize {
		return fmt.Errorf("kernelsim: pipe full")
	}
	bufT := k.typeOf("pipe_buffer")
	buf := k.At("pipe_buffer", pipe.Get("bufs")+(headIdx&(ringSize-1))*bufT.Size())
	buf.Set("page", pageAddr)
	buf.Set("offset", 0)
	buf.Set("len", n)
	if sym, ok := k.Tgt.LookupSymbol("page_cache_pipe_buf_ops"); ok {
		buf.Set("ops", sym.Addr)
	}
	if withBug {
		// The CVE: flags inherited from the slot's previous occupant are
		// not cleared; a previously-merged anon buffer leaves CAN_MERGE.
		buf.Set("flags", buf.Get("flags")|PipeBufFlagCanMerge)
	} else {
		buf.Set("flags", 0)
	}
	pg := k.At("page", pageAddr)
	pg.Set("_refcount", pg.Get("_refcount")+1)
	pipe.Set("head", headIdx+1)
	return nil
}

// churn ages the freshly built state through rounds deterministic
// transitions, approximating the paper's workload having run for a while
// before the debugger breaks in.
func (k *Kernel) churn(rounds int) {
	if rounds <= 0 {
		return
	}
	w := NewWorkload(k)
	for i := 0; i < rounds; i++ {
		w.Step()
	}
}

// applyVariants applies the fleet-heterogeneity options after the base
// build: zombie leftovers and pipe pressure are ordinary mutations, run
// through the same transition paths the live workload uses so every
// derived structure stays consistent.
func (k *Kernel) applyVariants(opts Options) {
	for i := 0; i < opts.ZombieTasks; i++ {
		pid := 700 + i
		if _, err := k.SpawnTask(pid, "zombie", 1); err == nil {
			_ = k.ExitTask(pid)
		}
	}
	if opts.PipeBurst > 0 {
		p := k.MakePipe()
		for i := 0; i < opts.PipeBurst; i++ {
			_ = k.PipeWrite(p, uint64(64+i*16))
		}
	}
}

// Workload is the deterministic mutation stepper behind churn, exported so
// free-run mode (vlserver -run-interval) and the benchmark can keep
// aging the kernel between stop events: each Step maps/unmaps memory,
// delivers a signal, writes the pipe, and periodically spawns or exits a
// task — touching the address-space, signal, pipe, and task figures.
type Workload struct {
	k    *Kernel
	pipe Obj
	i    int
}

// NewWorkload initializes a stepper over k (creating its scratch pipe).
func NewWorkload(k *Kernel) *Workload {
	return &Workload{k: k, pipe: k.MakePipe()}
}

// Step applies one deterministic mutation round.
func (w *Workload) Step() {
	k, i := w.k, w.i
	w.i++
	pid := 100 + (i*2)%8 // rotate over the workload leaders
	start := uint64(0x7500_0000_0000) + uint64(i)*0x100000
	if _, err := k.MapRegion(pid, start, start+0x20000, VMRead|VMWrite, Obj{}); err == nil && i%3 == 0 {
		_ = k.UnmapRegion(pid, start)
	}
	_ = k.SendSignal(pid, 10+(i%5), 1)
	_ = k.PipeWrite(w.pipe, uint64(64+i*16))
	if i%4 == 3 {
		if _, err := k.SpawnTask(900+i, "churn", 1); err == nil && i%8 == 7 {
			_ = k.ExitTask(900 + i)
		}
	}
}

// MakePipe creates a fresh empty pipe with its pipefs inode, returning the
// pipe_inode_info.
func (k *Kernel) MakePipe() Obj {
	ino := k.MkInode(k.vfs().sbPipefs, SIFIFO|0o600, 0)
	pi := k.Alloc("pipe_inode_info")
	ino.SetObj("i_pipe", pi)
	pi.Set("ring_size", PipeRingSize)
	pi.Set("max_usage", PipeRingSize)
	pi.Set("readers", 1)
	pi.Set("writers", 1)
	pi.Set("bufs", k.AllocArray("pipe_buffer", PipeRingSize).Addr)
	return pi
}
