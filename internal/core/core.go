// Package core is the public facade of the reproduction: it boots a
// complete simulated system — machine, disk, file-system stack,
// syscall layer — and exposes the paper's subsystems (Cosy, Kefence,
// KGCC, the event monitor, the syscall tracer) behind one Options
// struct. Examples, command-line tools, and the benchmark harness all
// go through this package.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cosy/kext"
	"repro/internal/disk"
	"repro/internal/kefence"
	"repro/internal/kernel"
	"repro/internal/kflight"
	"repro/internal/kgcc"
	"repro/internal/kmon"
	"repro/internal/kperf"
	"repro/internal/kprobe"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/vfs/btfs"
	"repro/internal/vfs/memfs"
	"repro/internal/vfs/wrapfs"
)

// FSKind selects the root file system.
type FSKind int

const (
	// FSMemfs is the Ext2/Ext3 analog.
	FSMemfs FSKind = iota
	// FSBtfs is the balanced-tree (Reiserfs analog) file system.
	FSBtfs
)

// WrapMode selects the stackable wrapfs layer and its allocator.
type WrapMode int

const (
	// NoWrap mounts the base FS directly.
	NoWrap WrapMode = iota
	// WrapKmalloc stacks wrapfs with slab allocations (vanilla).
	WrapKmalloc
	// WrapVmalloc stacks wrapfs with page-granular allocations (no
	// guards).
	WrapVmalloc
	// WrapKefence stacks wrapfs with Kefence-guarded allocations: the
	// instrumented configuration of experiment E5.
	WrapKefence
)

// Options configures a System.
type Options struct {
	// PhysBytes bounds simulated RAM (0: the paper's 884MB).
	PhysBytes int64
	// Costs overrides the cost model (nil: sim.DefaultCosts).
	Costs *sim.Costs
	// FS selects the root file system.
	FS FSKind
	// Wrap stacks wrapfs over the root FS.
	Wrap WrapMode
	// KefenceMode applies when Wrap == WrapKefence.
	KefenceMode kefence.Mode
	// KefenceUnderflow places guards before buffers instead of after.
	KefenceUnderflow bool
	// CacheBlocks sizes the buffer cache (0: 16384 blocks = 64MB).
	CacheBlocks int
	// Disk selects the drive profile (zero value: IDE7200).
	Disk disk.Profile
	// RingCap sizes the event-monitor ring (0: 4096).
	RingCap int
	// KGCCModule instruments the btfs module with the KGCC runtime
	// (requires FS == FSBtfs): experiment E7's configuration.
	KGCCModule bool
	// KGCCObjects sizes the instrumented module's object map.
	KGCCObjects int
	// Perf enables the kperf observability layer (kperf.New(...)).
	// Instrumentation reads the clock and observes existing charges
	// only, so simulated cycle counts are bit-identical with it on or
	// off — the determinism suite asserts exactly that.
	Perf *kperf.Set
	// Flight enables the kflight flight recorder over Perf (which must
	// also be set): epoch sampling of every kperf metric plus
	// postmortem dumps at kills, traps, extension deaths, and run end.
	// Like Perf it is host-side only and covered by the same
	// bit-identity gate. A zero-value Config selects the defaults.
	Flight *kflight.Config
	// Trace enables the ktrace request tracer over Perf (which must
	// also be set): causal request/span tracing with critical-path
	// latency decomposition. Like Flight it is host-side only and
	// covered by the same bit-identity gate. A zero-value Config
	// selects the defaults.
	Trace *ktrace.Config
}

// NewPerf creates a kperf set sized for this kernel's syscall table,
// with syscall names wired for the exporters. Pass it in
// Options.Perf; shardRecords caps each process's trace shard (0:
// kperf.DefaultShardRecords).
func NewPerf(shardRecords int) *kperf.Set {
	p := kperf.New(sys.Count(), shardRecords)
	p.SyscallName = func(nr int) string { return sys.Nr(nr).String() }
	return p
}

// System is a booted machine with its kernel services.
type System struct {
	M    *kernel.Machine
	NS   *vfs.Namespace
	K    *sys.Kernel
	Root vfs.FS

	Memfs  *memfs.FS
	Btfs   *btfs.FS
	Wrap   *wrapfs.FS
	Kef    *kefence.Allocator
	Mon    *kmon.Monitor
	Rec    *trace.Recorder
	Module *kgcc.Module
	// Probes is the kprobe subsystem, always booted: with no programs
	// attached its tracepoints cost exactly zero simulated cycles.
	Probes *kprobe.Manager

	// Perf mirrors Options.Perf (nil: instrumentation disabled).
	Perf *kperf.Set

	// Flight is the flight recorder (nil: disabled).
	Flight *kflight.Recorder

	// Ktrace is the request tracer (nil: disabled).
	Ktrace *ktrace.Tracer

	IO *vfs.IOModel

	wrapAlloc alloc.Allocator
}

// New boots a system.
func New(opts Options) (*System, error) {
	s := &System{Perf: opts.Perf}
	s.M = kernel.New(kernel.Config{PhysBytes: opts.PhysBytes, Costs: opts.Costs, Perf: opts.Perf})

	prof := opts.Disk
	if prof.Name == "" {
		prof = disk.IDE7200()
	}
	cache := opts.CacheBlocks
	if cache == 0 {
		cache = 16384
	}
	s.IO = vfs.NewIOModel(disk.New(prof), cache)

	var base vfs.FS
	switch opts.FS {
	case FSMemfs:
		s.Memfs = memfs.New("memfs", s.IO)
		base = s.Memfs
	case FSBtfs:
		s.Btfs = btfs.New("btfs", s.IO)
		base = s.Btfs
	default:
		return nil, fmt.Errorf("core: unknown FS kind %d", opts.FS)
	}

	if opts.KGCCModule {
		if s.Btfs == nil {
			return nil, fmt.Errorf("core: KGCCModule requires FSBtfs")
		}
		n := opts.KGCCObjects
		if n == 0 {
			n = 512
		}
		s.Module = kgcc.NewModule(&s.M.Costs, n)
		s.Btfs.MemTouch = s.Module.Touch
	}

	switch opts.Wrap {
	case NoWrap:
		s.Root = base
	case WrapKmalloc:
		s.wrapAlloc = s.M.Km
		s.Wrap = wrapfs.New(base, s.M.KAS, s.wrapAlloc)
		s.Root = s.Wrap
	case WrapVmalloc:
		s.wrapAlloc = s.M.Vm
		s.Wrap = wrapfs.New(base, s.M.KAS, s.wrapAlloc)
		s.Root = s.Wrap
	case WrapKefence:
		s.Kef = kefence.New(s.M.KAS, &s.M.Costs, s.M.ChargeTagged(kperf.SubKefence), s.M.Log)
		s.Kef.Mode = opts.KefenceMode
		s.Kef.GuardBefore = opts.KefenceUnderflow
		s.wrapAlloc = s.Kef
		s.Wrap = wrapfs.New(base, s.M.KAS, s.Kef)
		s.Root = s.Wrap
	default:
		return nil, fmt.Errorf("core: unknown wrap mode %d", opts.Wrap)
	}

	s.NS = vfs.NewNamespace(s.Root)
	s.K = sys.NewKernel(s.M, s.NS)

	ringCap := opts.RingCap
	if ringCap == 0 {
		ringCap = 4096
	}
	s.Mon = kmon.New(s.M, ringCap)
	s.NS.RegisterDevice("/dev/kernevents", &kmon.Dev{Mon: s.Mon})

	s.Probes = kprobe.NewManager(s.M)
	s.K.Probes = s.Probes
	s.M.Tap = s.Probes

	if s.Perf != nil {
		s.wirePerf()
	}
	if opts.Flight != nil {
		if s.Perf == nil {
			return nil, fmt.Errorf("core: Flight requires Perf")
		}
		s.Flight = kflight.NewRecorder(*opts.Flight, s.Perf)
		s.M.Flight = s.Flight
	}
	if opts.Trace != nil {
		if s.Perf == nil {
			return nil, fmt.Errorf("core: Trace requires Perf")
		}
		s.Ktrace = ktrace.NewTracer(opts.Trace, &s.M.Clock, s.Perf)
		s.M.Trace = s.Ktrace
		s.K.Ktrace = s.Ktrace
	}
	return s, nil
}

// wirePerf attaches the lazy gauges and the disk-latency histogram.
// GaugeFuncs read counters the subsystems already maintain and only
// run at snapshot time, so the wiring costs nothing during a run.
func (s *System) wirePerf() {
	reg := s.Perf.Reg
	s.IO.Dev.Perf = reg.Histogram("disk.access.cycles")

	reg.GaugeFunc("io.cache.hits", func() int64 { return s.IO.Hits })
	reg.GaugeFunc("io.cache.misses", func() int64 { return s.IO.Misses })
	reg.GaugeFunc("io.cache.writebacks", func() int64 { return s.IO.Writebacks })
	reg.GaugeFunc("io.cache.sync_writes", func() int64 { return s.IO.SyncWrites })
	reg.GaugeFunc("io.cache.throttles", func() int64 { return s.IO.Throttles })

	reg.GaugeFunc("mem.tlb.hits", func() int64 { h, _, _, _ := s.M.MemTotals(); return int64(h) })
	reg.GaugeFunc("mem.tlb.misses", func() int64 { _, m, _, _ := s.M.MemTotals(); return int64(m) })
	reg.GaugeFunc("mem.faults", func() int64 { _, _, f, _ := s.M.MemTotals(); return int64(f) })
	reg.GaugeFunc("mem.guard.promotions", func() int64 { _, _, _, g := s.M.MemTotals(); return int64(g) })

	reg.GaugeFunc("sched.ctx_switches", func() int64 { return s.M.CtxSwitches })
	reg.GaugeFunc("sys.calls.total", func() int64 { return s.K.TotalCalls() })
	reg.GaugeFunc("sys.bytes.copyin", func() int64 { return s.K.BytesIn })
	reg.GaugeFunc("sys.bytes.copyout", func() int64 { return s.K.BytesOut })
	// Ring data-plane activity: ops dispatched from ring_enter drains
	// (not boundary crossings), payload bytes that rode the shared
	// pages instead of the boundary, and dropped completions.
	reg.GaugeFunc("sys.ring.ops", func() int64 { return s.K.RingOps })
	reg.GaugeFunc("sys.ring.bytes", func() int64 { return s.K.RingBytes })
	reg.GaugeFunc("sys.ring.overflows", func() int64 { return s.K.RingOverflows })
	for nr := 0; nr < sys.Count(); nr++ {
		nr := sys.Nr(nr)
		reg.GaugeFunc("sys.calls."+nr.String(), func() int64 { return s.K.Calls[nr] })
	}

	s.Probes.WirePerf(reg)

	reg.GaugeFunc("kmon.logged", func() int64 { return s.Mon.Logged })
	reg.GaugeFunc("kmon.enqueued", func() int64 { return s.Mon.Enqueued })
	reg.GaugeFunc("kmon.ring.drops", func() int64 { return int64(s.Mon.Ring.Drops.Load()) })
	reg.GaugeFunc("klog.entries", func() int64 { return int64(s.M.Log.Len()) })
	reg.GaugeFunc("klog.dropped", func() int64 { return int64(s.M.Log.Dropped()) })
}

// Spawn starts a process whose body receives a syscall context.
func (s *System) Spawn(name string, fn func(pr *sys.Proc) error) *kernel.Process {
	return s.M.Spawn(name, func(p *kernel.Process) error {
		return fn(sys.NewProc(s.K, p))
	})
}

// Run drives the machine to completion.
func (s *System) Run() error { return s.M.Run() }

// EnableTrace installs a syscall recorder and returns it. The
// recorder is attached as a syscall exit tap, so it composes with any
// other observers already attached.
func (s *System) EnableTrace() *trace.Recorder {
	rec := trace.NewRecorder(&s.M.Clock)
	s.K.AddExitTap(func(p *kernel.Process, nr sys.Nr, in, out int, _ sim.Cycles) {
		rec.Syscall(p.PID, nr, in, out)
	})
	s.Rec = rec
	return rec
}

// InstrumentDcache attaches the event monitor to the dcache lock, the
// paper's §3.3 instrumentation point, and returns the lock's object
// id.
func (s *System) InstrumentDcache() uint64 {
	return s.Mon.AttachSpinLock(&s.NS.Dc.Lock, "fs/dcache.c", 42)
}

// CosyEngine loads the Cosy kernel extension in the given mode.
func (s *System) CosyEngine(mode kext.Mode) *kext.Engine {
	return kext.New(s.K, mode)
}

// KernelAlloc exposes the allocator the wrapfs layer uses (nil when
// unwrapped); tests compare allocator statistics through it.
func (s *System) KernelAlloc() alloc.Allocator { return s.wrapAlloc }
