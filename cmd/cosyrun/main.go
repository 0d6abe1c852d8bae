// Command cosyrun compiles a COSY_START/COSY_END-marked C function
// with Cosy-GCC and executes the compound in the simulated kernel.
//
// Usage:
//
//	cosyrun [-fn name] [-dump] [-mode isolated|data] file.c
//
// The simulated machine boots with an empty root file system; the
// marked region typically creates its own files (see
// examples/quickstart for a ready-made program).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cosy/cc"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/sys"
)

func main() {
	fn := flag.String("fn", "main", "function containing the marked region")
	dump := flag.Bool("dump", false, "print the compiled compound before running")
	mode := flag.String("mode", "data", "protection mode: isolated or data")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cosyrun [-fn name] [-dump] [-mode isolated|data] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	comp, err := cc.CompileMarked(string(src), *fn)
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Print(comp.Dump())
	}

	m := kext.ModeDataSeg
	if *mode == "isolated" {
		m = kext.ModeIsolated
	}
	s, err := core.New(core.Options{})
	if err != nil {
		fatal(err)
	}
	e := s.CosyEngine(m)
	var result int64
	s.Spawn("cosyrun", func(pr *sys.Proc) error {
		shm, err := e.NewShm(comp.ShmSize + 64)
		if err != nil {
			return err
		}
		result, err = e.ExecRing(pr, lang.Encode(comp), shm)
		return err
	})
	if err := s.Run(); err != nil {
		fatal(err)
	}
	fmt.Printf("compound returned %d\n", result)
	fmt.Printf("stats: %d ops executed, %d in-kernel syscalls, %d boundary crossing(s), mode %s\n",
		e.Stats.Ops, e.Stats.Syscalls, s.K.Calls[sys.NrRingEnter], m)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosyrun:", err)
	os.Exit(1)
}
