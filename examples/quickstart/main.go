// Quickstart: boot a simulated system, use the classic syscall
// interface, the consolidated calls, and a Cosy compound compiled
// from marked C code — the three interfaces the paper provides.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cosy/cc"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/sys"
)

// bulkCopy is user code with its bottleneck region marked for Cosy:
// everything between COSY_START and COSY_END executes in the kernel
// with a single boundary crossing.
const bulkCopy = `
int bulk(void) {
	COSY_START;
	char buf[4096];
	int in = sys_open("/data/input.txt", 0);
	int out = sys_creat("/data/copy.txt");
	int total = 0;
	int n = 1;
	while (n > 0) {
		n = sys_read(in, buf, 4096);
		if (n > 0) {
			sys_write(out, buf, n);
			total += n;
		}
	}
	sys_close(in);
	sys_close(out);
	cosy_return(total);
	COSY_END;
	return 0;
}`

func main() {
	s, err := core.New(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	engine := s.CosyEngine(kext.ModeDataSeg)

	s.Spawn("quickstart", func(pr *sys.Proc) error {
		// 1. Classic syscalls.
		if err := pr.Mkdir("/data"); err != nil {
			return err
		}
		fd, err := pr.Creat("/data/input.txt")
		if err != nil {
			return err
		}
		buf, err := pr.Mmap(64 << 10)
		if err != nil {
			return err
		}
		payload := make([]byte, 10_000)
		for i := range payload {
			payload[i] = byte('a' + i%26)
		}
		if err := pr.Poke(buf, payload); err != nil {
			return err
		}
		if _, err := pr.Write(fd, sys.UserBuf{Addr: buf.Addr, Len: len(payload)}); err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
		fmt.Println("wrote /data/input.txt with the classic write(2) path")

		// 2. A consolidated call: one crossing lists the directory
		// with full attributes.
		entries, err := pr.ReaddirPlus("/data")
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Printf("readdirplus: %-12s %6d bytes\n", e.Name, e.Attr.Size)
		}

		// 3. A Cosy compound: compile the marked region and run the
		// whole copy loop in the kernel.
		comp, err := cc.CompileMarked(bulkCopy, "bulk")
		if err != nil {
			return err
		}
		shm, err := engine.NewShm(comp.ShmSize)
		if err != nil {
			return err
		}
		copied, err := engine.ExecRing(pr, lang.Encode(comp), shm)
		if err != nil {
			return err
		}
		fmt.Printf("cosy compound copied %d bytes with %d in-kernel syscalls and 1 crossing\n",
			copied, engine.Stats.Syscalls)

		a, err := pr.Stat("/data/copy.txt")
		if err != nil {
			return err
		}
		fmt.Printf("copy verified: /data/copy.txt is %d bytes\n", a.Size)
		return nil
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated time: %v\n", s.M.Elapsed())
}
