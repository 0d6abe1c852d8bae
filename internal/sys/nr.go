// Package sys is the simulated system-call layer: the user/kernel
// boundary. Every call charges the user-side dispatch cost, one trap
// (mode switch) and explicit copyin/copyout per byte — the two
// overheads the paper's §2 attacks — then runs the VFS operation in
// kernel mode.
//
// The package provides both the classic POSIX calls and the paper's
// consolidated calls (§2.2): readdirplus, open_read_close,
// open_write_close and open_fstat, each of which crosses the boundary
// once instead of once per step. It also exposes kernel-internal
// entrypoints (no trap, no user copies) that the Cosy kernel
// extension uses to issue system calls from inside the kernel: "the
// system call invocation by the Cosy kernel module is the same as a
// normal process" (§2.3).
package sys

// Nr is a system call number.
type Nr uint16

// System call numbers. The consolidated calls are the ones this
// project adds to the kernel.
const (
	NrOpen Nr = iota
	NrClose
	NrRead
	NrWrite
	NrLseek
	NrStat
	NrFstat
	NrGetdents
	NrCreat
	NrUnlink
	NrMkdir
	NrRmdir
	NrRename
	NrFsync
	NrGetpid
	// Consolidated system calls (§2.2).
	NrReaddirPlus
	NrOpenReadClose
	NrOpenWriteClose
	NrOpenFstat
	// NrCosy executes a compound (§2.3).
	NrCosy
	// NrProbeAttach verifies and attaches a kprobe program;
	// NrProbeRead reads its aggregation maps back in one crossing.
	NrProbeAttach
	NrProbeRead
	// NrKuLoad compiles, analyzes, and instruments a kucode extension
	// in the kernel; NrKuCall invokes its entry point in one crossing.
	NrKuLoad
	NrKuCall
	// NrRingSetup maps a kring SQ/CQ pair into both address spaces;
	// NrRingEnter drains the whole submission queue in one crossing;
	// NrRingClose tears the mapping down.
	NrRingSetup
	NrRingEnter
	NrRingClose
	nrCount
)

var nrNames = [...]string{
	"open", "close", "read", "write", "lseek", "stat", "fstat",
	"getdents", "creat", "unlink", "mkdir", "rmdir", "rename", "fsync",
	"getpid", "readdirplus", "open_read_close", "open_write_close",
	"open_fstat", "cosy", "probe_attach", "probe_read", "ku_load",
	"ku_call", "ring_setup", "ring_enter", "ring_close",
}

func (n Nr) String() string {
	if int(n) < len(nrNames) {
		return nrNames[n]
	}
	return "sys_?"
}

// Count reports the number of defined syscalls.
func Count() int { return int(nrCount) }
