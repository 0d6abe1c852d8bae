package kernel

import (
	"errors"
	"fmt"

	"repro/internal/kperf"
	"repro/internal/mem"
	"repro/internal/sim"
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// ErrKilled is wrapped by the error of a process terminated by Kill
// (e.g. the Cosy watchdog).
var ErrKilled = errors.New("kernel: process killed")

// killPanic is the sentinel carried by the panic that unwinds a
// killed process.
type killPanic struct{ reason string }

// Process is one simulated process. Methods on Process must only be
// called from the process's own goroutine while it is the current
// process (i.e., from inside the fn passed to Spawn), except for
// Err/Times/State accessors used after Run returns.
type Process struct {
	M    *Machine
	PID  int
	Name string
	// UAS is the process's user address space.
	UAS *mem.AddressSpace

	// Perf is the process's kperf state (nil when the machine was
	// built without instrumentation; every method is nil-safe).
	Perf *kperf.ProcState

	// OnPreempt, if set, runs every time the process is about to be
	// scheduled out (timeslice expiry). This is the hook the Cosy
	// watchdog uses: "a preemptive kernel that checks the running
	// time of a Cosy process inside the kernel every time it is
	// scheduled out" (§2.3). Returning an error kills the process
	// with that error.
	OnPreempt func(p *Process) error

	inKernel     int // kernel-mode nesting depth
	kernelStreak sim.Cycles

	// bonus is the dynamic-priority bonus modeled on the Linux 2.6
	// O(1) scheduler: processes that sleep earn longer timeslices,
	// processes that burn full slices lose them. This is what makes a
	// busy-polling logger cheaper to run beside than an I/O-pacing
	// one (experiment E6's 61% vs 103%).
	bonus int

	userCycles, sysCycles, waitCycles sim.Cycles

	sliceLeft sim.Cycles
	state     procState
	resume    chan struct{}
	yield     chan struct{}
	err       error
}

// top is the goroutine body wrapping the user function.
func (p *Process) top(fn func(*Process) error) {
	<-p.resume
	func() {
		defer func() {
			if r := recover(); r != nil {
				if kp, ok := r.(killPanic); ok {
					p.err = fmt.Errorf("%w: %s", ErrKilled, kp.reason)
					p.M.FlightEvent(FlightKill,
						fmt.Sprintf("%s-%d: %s", p.Name, p.PID, kp.reason))
					return
				}
				panic(r)
			}
		}()
		p.err = fn(p)
	}()
	p.state = stateDone
	p.yield <- struct{}{}
}

// Err returns the process's exit error. Valid after Run completes.
func (p *Process) Err() error { return p.err }

// Times reports accumulated user, system, and wait (blocked on I/O)
// cycles.
func (p *Process) Times() (user, system, wait sim.Cycles) {
	return p.userCycles, p.sysCycles, p.waitCycles
}

// InKernel reports whether the process is currently in kernel mode.
func (p *Process) InKernel() bool { return p.inKernel > 0 }

// KernelStreak reports kernel cycles accumulated since the outermost
// EnterKernel. The Cosy watchdog compares this against
// Costs.MaxKernelCycles.
func (p *Process) KernelStreak() sim.Cycles { return p.kernelStreak }

// EnterKernel switches the process into kernel mode (nested calls
// stack).
func (p *Process) EnterKernel() {
	if p.inKernel == 0 {
		p.kernelStreak = 0
	}
	p.inKernel++
}

// ExitKernel pops one kernel-mode level.
func (p *Process) ExitKernel() {
	if p.inKernel == 0 {
		panic("kernel: ExitKernel without EnterKernel")
	}
	p.inKernel--
}

// Charge attributes c cycles to the process in its current mode,
// advancing the machine clock. Crossing a timeslice boundary yields
// the CPU (and runs the preemption hook).
func (p *Process) Charge(c sim.Cycles) {
	for c > 0 {
		step := c
		if step > p.sliceLeft {
			step = p.sliceLeft
		}
		p.account(step, p.inKernel > 0)
		if p.inKernel > 0 {
			p.kernelStreak += step
		}
		p.sliceLeft -= step
		c -= step
		if p.sliceLeft == 0 {
			p.preemptPoint()
		}
	}
}

// ChargeUser is a convenience for user-mode compute, asserting the
// process is not in kernel mode.
func (p *Process) ChargeUser(c sim.Cycles) {
	if p.inKernel > 0 {
		panic("kernel: ChargeUser while in kernel mode")
	}
	p.Charge(c)
}

// ChargeSys charges kernel-mode time regardless of current mode
// (interrupt-style accounting).
func (p *Process) ChargeSys(c sim.Cycles) {
	p.account(c, true)
	if p.inKernel > 0 {
		p.kernelStreak += c
	}
	p.sliceLeft -= c
	if p.sliceLeft <= 0 {
		p.sliceLeft = 0
		p.preemptPoint()
	}
}

// ChargeAs is Charge — or ChargeSys when sys is set — under the kperf
// subsystem tag sub, so the cycles land in that subsystem's attribution
// cell and the tracer sees the same tag.
func (p *Process) ChargeAs(sub kperf.Subsys, c sim.Cycles, sys bool) {
	p.Perf.Push(sub)
	if sys {
		p.ChargeSys(c)
	} else {
		p.Charge(c)
	}
	p.Perf.Pop()
}

// account is the one place a process is billed for CPU time: it
// advances the clock by c, adds c to the user or system bucket, and
// reports the charge to kperf and the tracer. kernelMode is the mode
// the charge is attributed in (ChargeSys forces kernel mode even
// outside a syscall); the tracer's subsystem is read off the live kperf
// tag stack, so its classification can never drift from the
// attribution's. Slice and kernel-streak bookkeeping stay with the
// callers, since scheduler-context charges touch neither.
func (p *Process) account(c sim.Cycles, kernelMode bool) {
	p.M.Clock.Advance(c)
	if kernelMode {
		p.sysCycles += c
	} else {
		p.userCycles += c
	}
	p.Perf.OnCycles(c, kernelMode)
	if t := p.M.Trace; t != nil {
		t.OnCharge(p.PID, c, kernelMode, p.Perf.CurrentSub(kernelMode))
	}
}

// Dynamic-priority bonus bounds (O(1)-scheduler style).
const (
	minBonus     = 0
	defaultBonus = 5
	maxBonus     = 10
)

// sliceLen scales the quantum by the dynamic priority: bonus 5 gets
// exactly Costs.TimeSlice; CPU hogs (bonus 0) get 2/7 of it, heavy
// sleepers (bonus 10) get 12/7.
func (p *Process) sliceLen() sim.Cycles {
	return p.M.Costs.TimeSlice * sim.Cycles(2+p.bonus) / 7
}

// preemptPoint runs at every timeslice expiry: the preemption hook
// fires, the bonus decays (this process just burned a full slice),
// then the CPU is handed over if anyone else wants it.
func (p *Process) preemptPoint() {
	p.M.FlightTick()
	if p.OnPreempt != nil {
		if err := p.OnPreempt(p); err != nil {
			p.KillErr(err)
		}
	}
	if p.bonus > minBonus {
		p.bonus--
	}
	p.M.deliverDue()
	if p.M.runnableOthers() {
		p.switchOut(stateReady, kperf.SubKern)
	}
	p.sliceLeft = p.sliceLen()
}

// Yield voluntarily gives up the CPU. Unlike blocking, yielding earns
// no priority boost (sched_yield in a spin loop still reads as CPU
// hunger to the 2.6 scheduler).
func (p *Process) Yield() {
	p.M.deliverDue()
	if !p.M.runnableOthers() {
		return
	}
	p.switchOut(stateReady, kperf.SubKern)
	p.sliceLeft = p.sliceLen()
}

// switchOut gives up the CPU: p becomes ready (preempted or yielding)
// or blocked waiting on sub (read only for stateBlocked), the tracer
// hears which, and control goes back to the scheduler. It returns once
// p has been dispatched again.
func (p *Process) switchOut(state procState, sub kperf.Subsys) {
	p.state = state
	if state == stateBlocked {
		p.M.traceBlock(p, sub)
	} else {
		p.M.traceReady(p)
	}
	p.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	p.M.traceRun(p)
}

// BlockFor suspends the process for d cycles of simulated I/O or
// sleep; the time lands in the wait bucket, not user or system.
func (p *Process) BlockFor(d sim.Cycles) {
	p.BlockOn(kperf.SubKern, d)
}

// BlockOn is BlockFor with a kperf subsystem tag naming what the
// process is waiting on (SubDisk for block I/O); the blocked interval
// appears in the timeline but — like all wait time — advances no CPU
// attribution.
func (p *Process) BlockOn(sub kperf.Subsys, d sim.Cycles) {
	if d <= 0 {
		p.Yield()
		return
	}
	wake := p.M.Clock.Now() + d
	p.M.addEvent(wake, p)
	start := p.M.Clock.Now()
	p.switchOut(stateBlocked, sub)
	// Sleeper boost: voluntary blocking earns priority.
	p.bonus += 2
	if p.bonus > maxBonus {
		p.bonus = maxBonus
	}
	p.sliceLeft = p.sliceLen()
	p.waitCycles += p.M.Clock.Now() - start
	p.Perf.BlockSpan(sub, start, p.M.Clock.Now())
	if sub == kperf.SubDisk && p.M.Tap != nil {
		if c := p.M.Tap.DiskWait(p, p.M.Clock.Now()-start); c > 0 {
			p.ChargeAs(kperf.SubProbe, c, true)
		}
	}
}

// wake moves a blocked process back to the run queue. Called by the
// scheduler when its event fires.
func (p *Process) wake() {
	p.state = stateReady
	p.M.traceReady(p)
	p.M.ready.PushBack(p)
}

// Kill terminates the process immediately with the given reason. It
// must be called from the process's own context (typically from an
// OnPreempt hook) and does not return.
func (p *Process) Kill(reason string) {
	panic(killPanic{reason: reason})
}

// KillErr terminates the process with an error's message.
func (p *Process) KillErr(err error) {
	panic(killPanic{reason: err.Error()})
}
