package main

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// spanKind names the layer boundary a span was recorded at. Spans are
// recorded by the benchmark's own code around its calls into each
// layer: the op itself, the sys.Proc syscall or ring/Cosy entry, the
// vfs.FS under the mount, and the KGCC module's MemTouch hook.
type spanKind uint8

const (
	spOp spanKind = iota
	spSysOpen
	spSysCreat
	spSysRead
	spSysWrite
	spSysClose
	spSysUnlink
	spSysLseek
	spRingIngest
	spRingScan
	spCosy
	spVfsLookup
	spVfsGetattr
	spVfsCreate
	spVfsMkdir
	spVfsUnlink
	spVfsRmdir
	spVfsReaddir
	spVfsRead
	spVfsWrite
	spVfsTruncate
	spVfsRename
	spVfsSync
	spKgcc
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"op", "sys.open", "sys.creat", "sys.read", "sys.write", "sys.close", "sys.unlink",
	"sys.lseek", "kring.ingest", "kring.scan", "cosy.exec",
	"vfs.lookup", "vfs.getattr", "vfs.create", "vfs.mkdir", "vfs.unlink", "vfs.rmdir",
	"vfs.readdir", "vfs.read", "vfs.write", "vfs.truncate", "vfs.rename", "vfs.sync", "kgcc.touch",
}

func (k spanKind) isSys() bool { return k >= spSysOpen && k <= spSysLseek }
func (k spanKind) isVfs() bool { return k >= spVfsLookup && k <= spVfsSync }

// spanStats aggregates the completed spans of one kind.
type spanStats struct {
	n     int64
	total int64 // inclusive ns
	self  int64 // ns not covered by child spans
	durs  []int64
}

type frame struct {
	kind  spanKind
	start int64
	child int64
}

// procClock is one simulated process's host-time clock: it advances
// only while that process is the one running, so a span that blocks on
// a disk wait does not absorb the host time other processes spend
// meanwhile.
type procClock struct {
	run    int64 // accumulated running ns
	frames []frame
}

// tracer keeps the spans of a traced round in memory and aggregates
// them when each ends. Simulated processes run one at a time, so the
// tracer needs no locking; its schedHook learns from the kernel's
// TraceHook seam when the running process changes.
type tracer struct {
	base  time.Time
	off   bool // set once the op phase is over
	procs map[int]*procClock
	cur   int   // pid whose clock is running, or -1
	since int64 // when cur was switched in

	spans [nSpanKinds]spanStats
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), procs: make(map[int]*procClock), cur: -1}
}

// reset drops everything recorded so far (the populate phase).
func (t *tracer) reset() {
	t.procs = make(map[int]*procClock)
	t.cur = -1
	t.spans = [nSpanKinds]spanStats{}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// clock switches pid in if needed and returns its running time.
func (t *tracer) clock(pid int) (*procClock, int64) {
	now := t.now()
	pc := t.procs[pid]
	if pc == nil {
		pc = &procClock{}
		t.procs[pid] = pc
	}
	if t.cur != pid {
		// A process reaching the tracer without a switch-in event is
		// on its first dispatch: the interval before it belongs to
		// the scheduler.
		t.switchOut(now)
		t.cur, t.since = pid, now
	}
	return pc, pc.run + now - t.since
}

func (t *tracer) switchOut(now int64) {
	if t.cur >= 0 {
		t.procs[t.cur].run += now - t.since
		t.cur = -1
	}
}

func (t *tracer) begin(pid int, k spanKind) {
	if t == nil || t.off {
		return
	}
	pc, now := t.clock(pid)
	pc.frames = append(pc.frames, frame{kind: k, start: now})
}

func (t *tracer) end(pid int) {
	if t == nil || t.off {
		return
	}
	pc, now := t.clock(pid)
	f := pc.frames[len(pc.frames)-1]
	pc.frames = pc.frames[:len(pc.frames)-1]
	dur := now - f.start
	if n := len(pc.frames); n > 0 {
		pc.frames[n-1].child += dur
	}
	s := &t.spans[f.kind]
	s.n++
	s.total += dur
	s.self += dur - f.child
	if f.kind != spOp && f.kind != spKgcc {
		// Quantiles are reported per syscall, vfs call, ring enter and
		// compound; op and KGCC spans only feed totals.
		s.durs = append(s.durs, dur)
	}
}

// schedHook is the tracer's view of the scheduler: a host-only
// kernel.TraceHook that stops a process's clock when it blocks or is
// preempted and restarts it when it runs again. It forwards every
// event to the hook already installed (ktrace on the observed
// workload), so it changes nothing the simulation sees.
type schedHook struct {
	t    *tracer
	next kernel.TraceHook
}

func (h schedHook) OnCharge(pid int, c sim.Cycles, kernelMode bool, sub kperf.Subsys) {
	if h.next != nil {
		h.next.OnCharge(pid, c, kernelMode, sub)
	}
}

func (h schedHook) OnBlock(pid int, sub kperf.Subsys, at sim.Cycles) {
	if pid == h.t.cur {
		h.t.switchOut(h.t.now())
	}
	if h.next != nil {
		h.next.OnBlock(pid, sub, at)
	}
}

func (h schedHook) OnReady(pid int, at sim.Cycles) {
	// OnReady also fires for a blocked process being woken by someone
	// else; only the running process's own OnReady is a switch-out.
	if pid == h.t.cur {
		h.t.switchOut(h.t.now())
	}
	if h.next != nil {
		h.next.OnReady(pid, at)
	}
}

func (h schedHook) OnRun(pid int, at sim.Cycles) {
	now := h.t.now()
	h.t.switchOut(now)
	if h.t.procs[pid] == nil {
		h.t.procs[pid] = &procClock{}
	}
	h.t.cur, h.t.since = pid, now
	if h.next != nil {
		h.next.OnRun(pid, at)
	}
}

// tracedFS is a delegating vfs.FS that records one span per call into
// the file system mounted under it.
type tracedFS struct {
	vfs.FS
	t *tracer
}

func (f tracedFS) Lookup(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	f.t.begin(p.PID, spVfsLookup)
	defer f.t.end(p.PID)
	return f.FS.Lookup(p, dir, name)
}

func (f tracedFS) Getattr(p *kernel.Process, n vfs.NodeID) (vfs.Attr, error) {
	f.t.begin(p.PID, spVfsGetattr)
	defer f.t.end(p.PID)
	return f.FS.Getattr(p, n)
}

func (f tracedFS) Create(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	f.t.begin(p.PID, spVfsCreate)
	defer f.t.end(p.PID)
	return f.FS.Create(p, dir, name)
}

func (f tracedFS) Mkdir(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	f.t.begin(p.PID, spVfsMkdir)
	defer f.t.end(p.PID)
	return f.FS.Mkdir(p, dir, name)
}

func (f tracedFS) Unlink(p *kernel.Process, dir vfs.NodeID, name string) error {
	f.t.begin(p.PID, spVfsUnlink)
	defer f.t.end(p.PID)
	return f.FS.Unlink(p, dir, name)
}

func (f tracedFS) Rmdir(p *kernel.Process, dir vfs.NodeID, name string) error {
	f.t.begin(p.PID, spVfsRmdir)
	defer f.t.end(p.PID)
	return f.FS.Rmdir(p, dir, name)
}

func (f tracedFS) Readdir(p *kernel.Process, dir vfs.NodeID) ([]vfs.DirEnt, error) {
	f.t.begin(p.PID, spVfsReaddir)
	defer f.t.end(p.PID)
	return f.FS.Readdir(p, dir)
}

func (f tracedFS) Read(p *kernel.Process, n vfs.NodeID, off int64, buf []byte) (int, error) {
	f.t.begin(p.PID, spVfsRead)
	defer f.t.end(p.PID)
	return f.FS.Read(p, n, off, buf)
}

func (f tracedFS) Write(p *kernel.Process, n vfs.NodeID, off int64, data []byte) (int, error) {
	f.t.begin(p.PID, spVfsWrite)
	defer f.t.end(p.PID)
	return f.FS.Write(p, n, off, data)
}

func (f tracedFS) Truncate(p *kernel.Process, n vfs.NodeID, size int64) error {
	f.t.begin(p.PID, spVfsTruncate)
	defer f.t.end(p.PID)
	return f.FS.Truncate(p, n, size)
}

func (f tracedFS) Rename(p *kernel.Process, odir vfs.NodeID, oname string, ndir vfs.NodeID, nname string) error {
	f.t.begin(p.PID, spVfsRename)
	defer f.t.end(p.PID)
	return f.FS.Rename(p, odir, oname, ndir, nname)
}

func (f tracedFS) Sync(p *kernel.Process) error {
	f.t.begin(p.PID, spVfsSync)
	defer f.t.end(p.PID)
	return f.FS.Sync(p)
}

// tracedTouch wraps the KGCC module's MemTouch hook in a span.
func tracedTouch(t *tracer, touch func(*kernel.Process, int64)) func(*kernel.Process, int64) {
	return func(p *kernel.Process, ops int64) {
		t.begin(p.PID, spKgcc)
		touch(p, ops)
		t.end(p.PID)
	}
}
