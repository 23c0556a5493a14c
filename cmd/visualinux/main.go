// Command visualinux is the interactive CLI debugger: a REPL over the
// simulated kernel exposing the paper's three v-commands (§4). It is the
// terminal analogue of attaching the GDB extension to a stopped kernel.
// Run `help` inside the REPL for the command list; use -remote to attach
// to a cmd/gdbstub process over the GDB Remote Serial Protocol.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"visualinux/internal/cli"
	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/ctypes"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
)

func main() {
	procs := flag.Int("procs", 0, "workload processes (0 = default of 5)")
	oneShot := flag.String("c", "", "run semicolon-separated commands and exit (e.g. -c 'vplot 7-1;vctrl show 1')")
	remote := flag.String("remote", "", "attach to a gdbstub over RSP instead of debugging in-process (addr:port); the local build provides types+symbols like vmlinux — use the same -procs on both sides")
	corePath := flag.String("core", "", "post-mortem: attach to a dump written with -savecore (crash(8) style)")
	saveCore := flag.String("savecore", "", "write the simulated kernel's memory image to a dump file and exit")
	flag.Parse()

	if *saveCore != "" {
		k := kernelsim.Build(kernelsim.Options{Processes: *procs})
		f, err := os.Create(*saveCore)
		if err == nil {
			err = coredump.Dump(k.Target(), f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "visualinux: savecore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("visualinux: core dump written to %s\n", *saveCore)
		return
	}

	// Pick the base target for the mode; every mode then reads it through
	// the same observed chain (a tap under a snapshot), so vtrace shows
	// which reads really reached the kernel, the stub or the dump.
	var base target.Target
	switch {
	case *corePath != "":
		fmt.Printf("visualinux: post-mortem attach to %s...\n", *corePath)
		tgt, err := loadCore(*corePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "visualinux: %v\n", err)
			os.Exit(1)
		}
		base = tgt
	case *remote != "":
		fmt.Printf("visualinux: loading local symbols and attaching to %s over RSP...\n", *remote)
		k := kernelsim.Build(kernelsim.Options{Processes: *procs})
		client, err := gdbrsp.Dial(*remote, k.Reg, k.Target().Symbols())
		if err != nil {
			fmt.Fprintf(os.Stderr, "visualinux: %v\n", err)
			os.Exit(1)
		}
		defer client.Close()
		base = client
		attached(k)
	default:
		fmt.Println("visualinux: building simulated kernel state...")
		k := kernelsim.Build(kernelsim.Options{Processes: *procs})
		base = k.Target()
		attached(k)
	}
	o := obs.NewObserver()
	runREPL(cli.New(core.NewSession(target.NewObservedSnapshot(base, o), o), os.Stdout), *oneShot)
}

// loadCore reads a dump written with -savecore, binding it to a locally
// rebuilt type registry the way GDB pairs a vmcore with vmlinux.
func loadCore(path string) (*target.Sim, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return coredump.Load(f, kernelsim.RegisterTypes(ctypes.NewRegistry()))
}

// attached prints the attach banner from the local kernel build.
func attached(k *kernelsim.Kernel) {
	pages, bytes := k.Mem.Footprint()
	fmt.Printf("attached: %d tasks, %d mapped pages (%d KiB). Type 'help'.\n",
		len(k.Tasks), pages, bytes/1024)
}

// runREPL drives the runner either from -c one-shot commands or stdin.
func runREPL(r *cli.Runner, oneShot string) {
	if oneShot != "" {
		for _, cmd := range strings.Split(oneShot, ";") {
			if !r.Exec(cmd) {
				break
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("(vl) ")
	for sc.Scan() {
		if !r.Exec(sc.Text()) {
			break
		}
		fmt.Print("(vl) ")
	}
}
