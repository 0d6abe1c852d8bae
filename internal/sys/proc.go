package sys

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/kprobe"
	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Kernel bundles the machine, the mount namespace, and the syscall
// observers: everything the syscall layer needs.
type Kernel struct {
	M  *kernel.Machine
	NS *vfs.Namespace
	// Calls counts syscall invocations by number.
	Calls [nrCount]int64
	// BytesIn/BytesOut count bytes copied across the user/kernel
	// boundary in each direction (copyin/copyout).
	BytesIn, BytesOut int64

	// RingOps counts SQEs dispatched by ring_enter drain loops; they
	// are deliberately NOT in Calls, so TotalCalls stays a faithful
	// count of boundary crossings. RingBytes counts payload bytes that
	// moved at kernel-copy rate through ring data areas instead of
	// crossing the boundary; RingOverflows counts completions lost (or
	// staged blocks rejected) to a full CQ or pending queue.
	RingOps, RingBytes, RingOverflows int64

	// ringOps are kernel-extension ring op handlers (RegisterRingOp);
	// consulted before the syscall registry during drains.
	ringOps map[uint16]RingOpFunc

	// Probes is the kprobe subsystem (nil on kernels booted without
	// it); enter/exit dispatch its syscall tracepoints.
	Probes *kprobe.Manager

	// Ktrace is the request tracer (nil on kernels booted without
	// it; every method is nil-safe): enter/exit open syscall spans
	// under the current request, and the Cosy/kucode entry points
	// open operations through it.
	Ktrace *ktrace.Tracer

	// Ku is the kucode extension subsystem, created lazily on the
	// first ku_load.
	Ku *kuState

	// exitTaps observe every completed syscall; see AddExitTap.
	exitTaps []ExitTap
}

// ExitTap observes one completed syscall in kernel context: the
// process, the call, the boundary byte counts, and the span duration
// in cycles. A tap runs after copyout, while the syscall is still
// open, so charges it makes (e.g. kmon event dispatch) attribute
// inside the syscall's kperf slot.
type ExitTap func(p *kernel.Process, nr Nr, in, out int, dur sim.Cycles)

// AddExitTap registers a syscall-completion observer. Taps run in
// registration order after each syscall; any number may be attached
// (the trace recorder, event monitors, E9's streaming bridge).
func (k *Kernel) AddExitTap(t ExitTap) {
	k.exitTaps = append(k.exitTaps, t)
}

// NewKernel wires a syscall layer over machine and namespace.
func NewKernel(m *kernel.Machine, ns *vfs.Namespace) *Kernel {
	return &Kernel{M: m, NS: ns}
}

// TotalCalls reports the total number of system calls served.
func (k *Kernel) TotalCalls() int64 {
	var total int64
	for _, c := range k.Calls {
		total += c
	}
	return total
}

// Errors of the syscall layer.
var (
	ErrBadFD    = errors.New("sys: bad file descriptor")
	ErrTooMany  = errors.New("sys: too many open files")
	ErrNotFound = vfs.ErrNotExist
)

// maxFDs bounds the per-process descriptor table.
const maxFDs = 256

// file is an open file description.
type file struct {
	fs   vfs.FS
	node vfs.NodeID
	off  int64
	path string
	dev  vfs.Device
}

// Proc is a process's view of the syscall layer: its descriptor
// table plus helpers for managing user-space buffers.
type Proc struct {
	K *Kernel
	P *kernel.Process

	fds [maxFDs]*file

	// scratch is the kernel-side staging buffer for the boundary
	// copies in Read/Write, reused across syscalls so the host does
	// not allocate per call; see kbuf.
	scratch []byte

	// lastEnter is the clock at the current syscall's entry; exit
	// taps and the syscall_exit tracepoint use it for span durations.
	lastEnter sim.Cycles

	// rings are the process's mapped krings by id (lookup only, never
	// iterated — map order must not reach the simulation).
	rings      map[int]*ringState
	nextRingID int
}

// kbuf returns an n-byte kernel staging buffer, reusing the
// per-process scratch allocation. The contents are unspecified and
// only valid until the next kbuf call: Read/Write fill the used
// prefix before handing it anywhere. Processes are single-threaded
// and the buffer never escapes a syscall, so one per Proc suffices.
func (pr *Proc) kbuf(n int) []byte {
	if cap(pr.scratch) < n {
		pr.scratch = make([]byte, n)
	}
	return pr.scratch[:n]
}

// NewProc attaches a syscall context to a running process.
func NewProc(k *Kernel, p *kernel.Process) *Proc {
	return &Proc{K: k, P: p}
}

// UserBuf is a buffer in the process's user address space.
type UserBuf struct {
	Addr mem.Addr
	Len  int
}

// Mmap maps n bytes (rounded to pages) of fresh user memory.
func (pr *Proc) Mmap(n int) (UserBuf, error) {
	base, err := pr.P.UAS.MapRegion(mem.PagesFor(n), mem.PermRW)
	if err != nil {
		return UserBuf{}, err
	}
	return UserBuf{Addr: base, Len: n}, nil
}

// Poke fills a user buffer directly (test/workload setup; the user
// program producing the data is part of its modeled compute, so no
// separate charge).
func (pr *Proc) Poke(ub UserBuf, data []byte) error {
	if len(data) > ub.Len {
		return fmt.Errorf("sys: poke of %d bytes into %d-byte buffer", len(data), ub.Len)
	}
	return pr.P.UAS.View(ub.Addr, ub.Len).CopyOut(0, data)
}

// Peek reads a user buffer's contents.
func (pr *Proc) Peek(ub UserBuf, n int) ([]byte, error) {
	if n > ub.Len {
		n = ub.Len
	}
	out := make([]byte, n)
	if err := pr.P.UAS.View(ub.Addr, ub.Len).CopyIn(0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// enter performs the user->kernel transition for syscall nr: user
// dispatch cost, the trap, and copyin accounting for in bytes of
// arguments.
func (pr *Proc) enter(nr Nr, in int) {
	c := &pr.K.M.Costs
	pr.lastEnter = pr.K.M.Clock.Now()
	pr.P.Perf.SyscallEnter(uint16(nr), pr.lastEnter)
	pr.K.Ktrace.SyscallEnter(pr.P.PID, uint16(nr))
	pr.P.Perf.Push(kperf.SubBoundary)
	pr.P.ChargeUser(c.UserDispatch)
	pr.P.EnterKernel()
	pr.P.Charge(c.Trap)
	if in > 0 {
		pr.P.Charge(sim.Cycles(in) * c.CopyUserByte)
		pr.K.BytesIn += int64(in)
	}
	pr.P.Perf.Pop()
	pr.K.Calls[nr]++
	if pr.K.Probes != nil {
		if cost := pr.K.Probes.SyscallEnter(pr.P.PID, int(nr), in); cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
}

// chargeExec bills in-kernel program execution — kprobe programs
// (SubProbe) or kucode extensions (SubKu) — to the process under that
// subsystem tag: observer and extension overhead are measured,
// attributable quantities. The slice is also recorded as a ktrace exec
// span under the current request.
func (pr *Proc) chargeExec(sub kperf.Subsys, c sim.Cycles) {
	start := pr.K.M.Clock.Now()
	pr.P.ChargeAs(sub, c, false)
	pr.K.Ktrace.ExecSpan(pr.P.PID, sub, start, pr.K.M.Clock.Now())
}

// exit performs the kernel->user transition, charging copyout for
// out bytes and notifying the exit taps.
func (pr *Proc) exit(nr Nr, in, out int) {
	if out > 0 {
		pr.P.ChargeAs(kperf.SubBoundary, sim.Cycles(out)*pr.K.M.Costs.CopyUserByte, false)
		pr.K.BytesOut += int64(out)
	}
	dur := pr.K.M.Clock.Now() - pr.lastEnter
	if pr.K.Probes != nil {
		if cost := pr.K.Probes.SyscallExit(pr.P.PID, int(nr), in, out, dur); cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
	for _, t := range pr.K.exitTaps {
		t(pr.P, nr, in, out, dur)
	}
	pr.P.ExitKernel()
	pr.P.Perf.SyscallExit(pr.K.M.Clock.Now())
	pr.K.Ktrace.SyscallExit(pr.P.PID)
}

// installFD grabs the lowest free descriptor.
func (pr *Proc) installFD(f *file) (int, error) {
	for i := 0; i < maxFDs; i++ {
		if pr.fds[i] == nil {
			pr.fds[i] = f
			return i, nil
		}
	}
	return -1, ErrTooMany
}

func (pr *Proc) file(fd int) (*file, error) {
	if fd < 0 || fd >= maxFDs || pr.fds[fd] == nil {
		return nil, ErrBadFD
	}
	return pr.fds[fd], nil
}

// OpenFDs reports the number of open descriptors (leak tests).
func (pr *Proc) OpenFDs() int {
	n := 0
	for _, f := range pr.fds {
		if f != nil {
			n++
		}
	}
	return n
}
