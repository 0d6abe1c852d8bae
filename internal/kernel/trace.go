package kernel

import (
	"repro/internal/kperf"
	"repro/internal/sim"
)

// TraceHook is the request-tracing seam: the machine announces every
// cycle charge and every scheduling transition through it, host-side
// only. Like FlightHook — and unlike ProbeTap — a trace hook can
// never charge cycles (it has no way to return a cost), so a machine
// with a tracer attached is bit-identical in simulated time to one
// without, by construction. internal/ktrace's Tracer implements this
// interface structurally (ktrace imports only kperf and sim, so the
// kernel stays ignorant of the tracer and the tracer of the kernel).
//
// The four callbacks are exactly the information a critical-path
// analyzer needs to partition a request's wall cycles: OnCharge
// classifies on-CPU time (the kperf subsystem tag distinguishes
// boundary copies from kernel work), and OnBlock/OnReady/OnRun carve
// the off-CPU intervals into blocked wait vs run-queue residency.
type TraceHook interface {
	// OnCharge fires for every cycle charge attributed to a process —
	// the same charges kperf's OnCycles sees, with the subsystem the
	// attribution classified them under.
	OnCharge(pid int, c sim.Cycles, kernelMode bool, sub kperf.Subsys)
	// OnBlock fires when a process gives up the CPU to wait on an
	// event; sub names what it waits on (SubDisk for block I/O).
	OnBlock(pid int, sub kperf.Subsys, at sim.Cycles)
	// OnReady fires when a process becomes runnable while off-CPU:
	// preempted, yielded, or woken from a blocked wait. Time from here
	// to OnRun is run-queue residency (scheduler delay).
	OnReady(pid int, at sim.Cycles)
	// OnRun fires when a previously off-CPU process is running again.
	OnRun(pid int, at sim.Cycles)
}

// traceBlock reports that p is about to block waiting on sub.
func (m *Machine) traceBlock(p *Process, sub kperf.Subsys) {
	if m.Trace != nil {
		m.Trace.OnBlock(p.PID, sub, m.Clock.Now())
	}
}

// traceReady reports that p is runnable but off-CPU.
func (m *Machine) traceReady(p *Process) {
	if m.Trace != nil {
		m.Trace.OnReady(p.PID, m.Clock.Now())
	}
}

// traceRun reports that p is running again.
func (m *Machine) traceRun(p *Process) {
	if m.Trace != nil {
		m.Trace.OnRun(p.PID, m.Clock.Now())
	}
}
