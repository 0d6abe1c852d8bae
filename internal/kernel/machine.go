// Package kernel implements the simulated operating system core: a
// single-CPU machine with a virtual-time clock, processes scheduled
// cooperatively in round-robin with a timeslice, a pending-event queue
// for blocking I/O, and per-process user/system/wait time accounting.
//
// Everything the paper measures is a ratio of elapsed, system, and
// user times, so the machine's one job is to attribute every virtual
// cycle to exactly one of those buckets for exactly one process.
//
// Concurrency model: each Process runs on its own goroutine, but the
// machine enforces strict hand-off — at any instant at most one
// goroutine (either the scheduler loop or the current process) is
// executing. This gives deterministic interleaving and makes all
// shared state effectively single-threaded.
package kernel

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/klog"
	"repro/internal/kperf"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sim"
)

// ProbeTap is the kprobe dispatch seam: the machine announces
// tracepoint events through it and charges whatever cycle cost the
// probe subsystem reports, tagged to the probe kperf subsystem. The
// kernel package stays ignorant of kprobe itself; internal/kprobe's
// Manager implements this interface and core wires it in. A nil Tap
// — or a Tap with nothing attached, which must return 0 — costs
// nothing, preserving the zero-cost observability gate.
type ProbeTap interface {
	// CtxSwitch fires on every process-to-process switch, in
	// scheduler context, with the process being switched in.
	CtxSwitch(p *Process) sim.Cycles
	// Fault fires after a page fault has been handled.
	Fault(p *Process, guard, write bool) sim.Cycles
	// DiskWait fires when a process wakes from a disk wait of d
	// cycles.
	DiskWait(p *Process, d sim.Cycles) sim.Cycles
}

// Machine is the simulated computer.
type Machine struct {
	Clock sim.Clock
	Costs sim.Costs
	Phys  *mem.Phys
	// KAS is the kernel address space: allocators carve from it, Cosy
	// shared buffers are mapped into it.
	KAS *mem.AddressSpace
	Km  *alloc.Kmalloc
	Vm  *alloc.Vmalloc
	Log *klog.Log

	// Perf is the machine's observability bundle; nil disables all
	// instrumentation. kperf only observes charges the machine makes
	// anyway, so enabling it never moves a simulated cycle.
	Perf *kperf.Set

	// Tap is the kprobe tracepoint seam (nil = no probe subsystem).
	// Unlike Perf, a tap may charge simulated cycles — probe
	// execution is real, measured work — but only when a program is
	// attached at the firing tracepoint.
	Tap ProbeTap

	// Flight is the flight-recorder seam (nil = no recorder). Like
	// Perf it is host-side only and can never move a simulated cycle;
	// see FlightHook.
	Flight FlightHook

	// Trace is the request-tracing seam (nil = no tracer). Like Flight
	// it is host-side only and can never move a simulated cycle; see
	// TraceHook.
	Trace TraceHook

	procs   map[int]*Process
	ready   *ring.Deque[*Process]
	current *Process
	events  eventHeap
	nextPID int
	lastRun *Process

	// CtxSwitches counts process-to-process switches.
	CtxSwitches int64
	// IdleCycles accumulates time when no process was runnable.
	IdleCycles sim.Cycles

	// Memory stats of retired processes, folded in as each process
	// exits so MemTotals covers the machine's whole life.
	retiredTLBHits, retiredTLBMisses uint64
	retiredFaults, retiredPromos     uint64
}

// Config controls machine creation.
type Config struct {
	// PhysBytes bounds physical memory; 0 selects the paper's 884MB.
	PhysBytes int64
	// Costs overrides the cost model; nil selects sim.DefaultCosts.
	Costs *sim.Costs
	// Perf, when set, enables the kperf observability layer.
	Perf *kperf.Set
}

// New creates a machine.
func New(cfg Config) *Machine {
	if cfg.PhysBytes == 0 {
		cfg.PhysBytes = 884 << 20
	}
	costs := sim.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	m := &Machine{
		Costs:   costs,
		Phys:    mem.NewPhys(cfg.PhysBytes),
		Perf:    cfg.Perf,
		procs:   make(map[int]*Process),
		ready:   ring.NewDeque[*Process](16),
		nextPID: 1,
	}
	m.KAS = mem.NewAddressSpace("kernel", m.Phys, &m.Costs)
	m.KAS.Charge = m.ChargeTagged(kperf.SubMem)
	m.Km = alloc.NewKmalloc(m.KAS, &m.Costs, m.ChargeTagged(kperf.SubAlloc))
	m.Vm = alloc.NewVmalloc(m.KAS, &m.Costs, m.ChargeTagged(kperf.SubAlloc))
	m.Log = klog.New(&m.Clock, 0)
	if m.Perf != nil {
		m.Log.Span = func() uint64 {
			if p := m.current; p != nil {
				return p.Perf.CurrentSpan()
			}
			return 0
		}
		m.Log.Req = func() uint64 {
			if p := m.current; p != nil {
				id, _ := p.Perf.Request()
				return id
			}
			return 0
		}
	}
	// The fault probe is installed unconditionally: kperf's Fault is
	// nil-safe and the kprobe tap attaches programs at runtime, so
	// the seam must exist even on machines booted without Perf.
	m.KAS.FaultProbe = func(f *mem.Fault) {
		if p := m.current; p != nil {
			m.fault(p, f)
		}
	}
	return m
}

// fault reports a handled page fault taken in p's context, in either
// address space: the kperf fault instant, a flight event for guard
// faults, and the kprobe tracepoint, whose cost p pays as kernel time
// under the probe subsystem.
func (m *Machine) fault(p *Process, f *mem.Fault) {
	write := f.Access == mem.AccessWrite
	p.Perf.Fault(m.Clock.Now(), f.Guard, write)
	if f.Guard {
		m.FlightEvent(FlightTrap, fmt.Sprintf("guard fault in %s-%d at %#x", p.Name, p.PID, f.Addr))
	}
	if m.Tap != nil {
		if c := m.Tap.Fault(p, f.Guard, write); c > 0 {
			p.ChargeAs(kperf.SubProbe, c, true)
		}
	}
}

// ChargeTagged returns a charge function for subsystems (MMU,
// allocators) that attributes through the current process, in its
// current mode, under the given kperf subsystem tag. Charges with no
// current process (machine setup) advance the clock as system time of
// nobody.
func (m *Machine) ChargeTagged(sub kperf.Subsys) func(sim.Cycles) {
	return func(c sim.Cycles) {
		if p := m.current; p != nil {
			p.ChargeAs(sub, c, false)
			return
		}
		m.Perf.OnSetup(c)
		m.Clock.Advance(c)
	}
}

// Elapsed reports total virtual time since boot.
func (m *Machine) Elapsed() sim.Cycles { return m.Clock.Now() }

// Spawn creates a process executing fn on its own goroutine. The
// process does not run until Run is called. Its user address space is
// created with a stack/heap region already mapped.
func (m *Machine) Spawn(name string, fn func(*Process) error) *Process {
	p := &Process{
		M:      m,
		PID:    m.nextPID,
		Name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		state:  stateReady,
		bonus:  defaultBonus,
	}
	m.nextPID++
	p.UAS = mem.NewAddressSpace(fmt.Sprintf("user-%s-%d", name, p.PID), m.Phys, &m.Costs)
	p.Perf = m.Perf.NewProc(p.PID, name)
	p.UAS.Charge = func(c sim.Cycles) { p.ChargeAs(kperf.SubMem, c, false) }
	p.UAS.FaultProbe = func(f *mem.Fault) { m.fault(p, f) }
	m.procs[p.PID] = p
	m.ready.PushBack(p)
	go p.top(fn)
	return p
}

// Run drives the machine until every spawned process has finished.
// It returns the first process error encountered (processes killed by
// the watchdog report that as their error), though all processes run
// to completion regardless.
func (m *Machine) Run() error {
	var firstErr error
	for len(m.procs) > 0 {
		m.deliverDue()
		if m.ready.Len() == 0 {
			if m.events.Len() == 0 {
				panic("kernel: deadlock - processes alive but nothing runnable and no pending events")
			}
			ev := m.events.pop()
			if ev.when > m.Clock.Now() {
				gap := ev.when - m.Clock.Now()
				m.IdleCycles += gap
				m.Perf.OnIdle(gap)
				m.Clock.AdvanceTo(ev.when)
				m.FlightTick()
			}
			ev.proc.wake()
			continue
		}
		p, _ := m.ready.PopFront()
		if p.state != stateReady {
			continue
		}
		m.dispatch(p)
		m.FlightTick()
		switch p.state {
		case stateDone:
			if p.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("process %s: %w", p.Name, p.err)
			}
			m.retireMemStats(p.UAS)
			delete(m.procs, p.PID)
		case stateReady:
			m.ready.PushBack(p)
		case stateBlocked:
			// Wake event already queued by BlockFor.
		}
	}
	m.FlightEvent(FlightRunEnd, "")
	return firstErr
}

// dispatch switches to p and runs it until it yields.
func (m *Machine) dispatch(p *Process) {
	if m.lastRun != p && m.lastRun != nil {
		// Scheduler context: the switch and its probe bill the
		// incoming process's system time through account alone
		// (ChargeSys would preempt here).
		m.CtxSwitches++
		p.Perf.Push(kperf.SubSched)
		p.account(m.Costs.CtxSwitch, true)
		p.Perf.Pop()
		p.UAS.TLBFlush()
		m.KAS.TLBFlush()
		if m.Tap != nil {
			if c := m.Tap.CtxSwitch(p); c > 0 {
				p.Perf.Push(kperf.SubProbe)
				p.account(c, true)
				p.Perf.Pop()
			}
		}
	}
	m.lastRun = p
	m.current = p
	p.state = stateRunning
	p.sliceLeft = p.sliceLen()
	start := m.Clock.Now()
	p.resume <- struct{}{}
	<-p.yield
	m.current = nil
	p.Perf.SchedSpan(start, m.Clock.Now())
}

// runnableOthers reports whether any process other than the current
// one is ready to run (the preemption condition).
func (m *Machine) runnableOthers() bool {
	for i := 0; i < m.ready.Len(); i++ {
		if m.ready.At(i).state == stateReady {
			return true
		}
	}
	return false
}

// addEvent queues a wakeup for proc at time when.
func (m *Machine) addEvent(when sim.Cycles, proc *Process) {
	m.events.push(event{when: when, proc: proc})
}

// deliverDue wakes every process whose event time has passed. The
// scheduler loop calls it before dispatching, and preemption points
// call it from process context so a spinning process cannot starve a
// sleeper whose I/O already completed (only one goroutine runs at a
// time, so this is safe).
func (m *Machine) deliverDue() {
	for {
		ev, ok := m.events.peek()
		if !ok || ev.when > m.Clock.Now() {
			return
		}
		m.events.pop()
		ev.proc.wake()
	}
}

// Procs reports the number of live processes.
func (m *Machine) Procs() int { return len(m.procs) }

// retireMemStats folds an exiting process's address-space counters
// into the machine totals before the process is forgotten.
func (m *Machine) retireMemStats(as *mem.AddressSpace) {
	m.retiredTLBHits += as.TLBHits
	m.retiredTLBMisses += as.TLBMisses
	m.retiredFaults += as.Faults
	m.retiredPromos += as.GuardPromos
}

// MemTotals aggregates TLB/fault/guard-promotion counts over the
// kernel address space and every user address space, including
// processes that already exited.
func (m *Machine) MemTotals() (tlbHits, tlbMisses, faults, guardPromos uint64) {
	tlbHits = m.retiredTLBHits + m.KAS.TLBHits
	tlbMisses = m.retiredTLBMisses + m.KAS.TLBMisses
	faults = m.retiredFaults + m.KAS.Faults
	guardPromos = m.retiredPromos + m.KAS.GuardPromos
	for _, p := range m.procs {
		tlbHits += p.UAS.TLBHits
		tlbMisses += p.UAS.TLBMisses
		faults += p.UAS.Faults
		guardPromos += p.UAS.GuardPromos
	}
	return tlbHits, tlbMisses, faults, guardPromos
}
