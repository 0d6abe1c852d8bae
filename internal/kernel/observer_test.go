package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// obsLog records every TraceHook and FlightHook callback, in order,
// as one line each.
type obsLog struct {
	lines  []string
	charge map[int]sim.Cycles
}

func (l *obsLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *obsLog) OnCharge(pid int, c sim.Cycles, kernelMode bool, sub kperf.Subsys) {
	mode := "user"
	if kernelMode {
		mode = "kern"
	}
	l.charge[pid] += c
	l.add("%d charge %d %s %s", pid, c, mode, sub)
}

func (l *obsLog) OnBlock(pid int, sub kperf.Subsys, at sim.Cycles) {
	l.add("%d block %s @%d", pid, sub, at)
}

func (l *obsLog) OnReady(pid int, at sim.Cycles) { l.add("%d ready @%d", pid, at) }
func (l *obsLog) OnRun(pid int, at sim.Cycles)   { l.add("%d run @%d", pid, at) }
func (l *obsLog) Tick(now sim.Cycles)            { l.add("tick @%d", now) }
func (l *obsLog) Event(now sim.Cycles, kind, detail string) {
	l.add("event %s %q @%d", kind, detail, now)
}

// fixedTap is a ProbeTap charging a fixed, distinct cost per
// tracepoint, so each probe charge is recognisable in the log.
type fixedTap struct{}

func (fixedTap) CtxSwitch(*Process) sim.Cycles            { return 7 }
func (fixedTap) Fault(*Process, bool, bool) sim.Cycles    { return 11 }
func (fixedTap) DiskWait(*Process, sim.Cycles) sim.Cycles { return 13 }

// observerGolden is the exact callback sequence of the scenario in
// TestObserverEventSequence. Consumers of the two hooks (the ktrace
// critical-path analyzer, perfbench's per-process clocks) depend on
// this order: a charge, a switch-out or a fault that reports at a
// different point, or twice, shows up here.
var observerGolden = []string{
	"1 charge 700 user user",
	"tick @700",
	"1 ready @700",
	"tick @700",
	"2 charge 30 kern sched",
	"2 charge 7 kern probe",
	"2 ready @737",
	"tick @737",
	"3 charge 30 kern sched",
	"3 charge 7 kern probe",
	"3 block disk @774",
	"tick @774",
	"1 charge 30 kern sched",
	"1 charge 7 kern probe",
	"1 run @811",
	"1 charge 600 user user",
	"tick @1411",
	"1 ready @1411",
	"tick @1411",
	"2 charge 30 kern sched",
	"2 charge 7 kern probe",
	"2 run @1448",
	"2 charge 100 user user",
	"2 block kern @1548",
	"tick @1548",
	"1 charge 30 kern sched",
	"1 charge 7 kern probe",
	"1 run @1585",
	"1 charge 200 user user",
	"1 charge 200 kern kern",
	"1 charge 100 kern kern",
	"tick @2085",
	"3 ready @2085",
	"1 ready @2085",
	"tick @2085",
	"3 charge 30 kern sched",
	"3 charge 7 kern probe",
	"3 run @2122",
	"3 charge 13 kern probe",
	"3 charge 300 user user",
	"3 ready @2435",
	"tick @2435",
	"1 charge 30 kern sched",
	"1 charge 7 kern probe",
	"1 run @2472",
	"1 charge 40 kern mem",
	"1 charge 11 kern probe",
	"1 charge 40 user mem",
	"1 charge 11 kern probe",
	"tick @2574",
	"3 charge 30 kern sched",
	"3 charge 7 kern probe",
	"3 run @2611",
	"tick @2611",
	"tick @3548",
	"2 ready @3548",
	"2 charge 30 kern sched",
	"2 charge 7 kern probe",
	"2 run @3585",
	"2 charge 50 kern kern",
	"2 charge 40 user mem",
	"event trap \"guard fault in yielder-2 at 0x10000\" @3675",
	"2 charge 11 kern probe",
	"tick @3686",
	"event run_end \"\" @3686",
}

// TestObserverEventSequence pins the order of TraceHook and FlightHook
// callbacks over a fixed scenario of preemption, yield, block and
// wake, disk wait, faults and scheduler-context probe charges, and
// checks that the charges each process's hook saw add up to its user
// plus system time.
func TestObserverEventSequence(t *testing.T) {
	costs := sim.DefaultCosts()
	costs.TimeSlice = 700
	costs.CtxSwitch = 30
	costs.PageFault = 40
	m := New(Config{Costs: &costs, Perf: kperf.New(0, 0)})
	log := &obsLog{charge: make(map[int]sim.Cycles)}
	m.Trace = log
	m.Flight = log
	m.Tap = fixedTap{}

	hog := m.Spawn("hog", func(p *Process) error {
		p.ChargeUser(1500)
		p.EnterKernel()
		p.Charge(200)
		p.ChargeSys(100)
		_, _ = m.KAS.ReadU64(0x10)
		p.ExitKernel()
		_, _ = p.UAS.ReadU64(0x10)
		return nil
	})
	yielder := m.Spawn("yielder", func(p *Process) error {
		p.Yield()
		p.ChargeUser(100)
		p.BlockFor(2000)
		p.ChargeSys(50)
		va := p.UAS.Reserve(1)
		if err := p.UAS.MapGuard(va); err != nil {
			return err
		}
		_, _ = p.UAS.ReadU64(va)
		return nil
	})
	disk := m.Spawn("disk", func(p *Process) error {
		p.BlockOn(kperf.SubDisk, 1000)
		p.ChargeUser(300)
		p.Yield()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if got, want := strings.Join(log.lines, "\n"), strings.Join(observerGolden, "\n"); got != want {
		t.Errorf("observer sequence changed:\n%s\n\nwant:\n%s", got, want)
	}
	for _, p := range []*Process{hog, yielder, disk} {
		u, s, _ := p.Times()
		if log.charge[p.PID] != u+s {
			t.Errorf("%s: OnCharge total %d, user+sys %d", p.Name, log.charge[p.PID], u+s)
		}
	}
}
