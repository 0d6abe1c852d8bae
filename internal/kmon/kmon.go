// Package kmon is the event-monitoring framework of §3.3 (Figure 1):
// a log_event call feeds an event dispatcher, which invokes
// registered in-kernel callbacks synchronously and, when enabled,
// pushes the event into a lock-free ring buffer exposed to user space
// through a character device; libkernevents (the Reader type) copies
// entries in bulk and hands them out one by one.
//
// Each event carries the fields the paper specifies: a reference to
// the affected object, an integer event type, and the source file and
// line that triggered it.
package kmon

import (
	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/ring"
	"repro/internal/sim"
)

// EventType encodes what happened to the object.
type EventType int32

// Event types for the built-in monitors; modules may define their own
// above EvUser.
const (
	EvLockAcquire EventType = iota + 1
	EvLockRelease
	EvRefInc
	EvRefDec
	EvRefDestroy
	EvIRQDisable
	EvIRQEnable
	EvUser EventType = 1000
)

func (t EventType) String() string {
	switch t {
	case EvLockAcquire:
		return "lock-acquire"
	case EvLockRelease:
		return "lock-release"
	case EvRefInc:
		return "ref-inc"
	case EvRefDec:
		return "ref-dec"
	case EvRefDestroy:
		return "ref-destroy"
	case EvIRQDisable:
		return "irq-disable"
	case EvIRQEnable:
		return "irq-enable"
	}
	return "user-event"
}

// Event is one monitoring record. It is fixed-size (the paper:
// "designed to minimize the size of individual log entries"); source
// files are interned into a table and referenced by index.
type Event struct {
	Obj  uint64 // identity of the affected object
	Type EventType
	File FileID
	Line int32
	Time sim.Cycles
}

// EventBytes is the serialized size of one event in the character
// device stream.
const EventBytes = 24

// FileID indexes the monitor's interned source-file table.
type FileID uint16

// Callback is an in-kernel on-line monitor, invoked synchronously by
// the dispatcher. "When high performance is needed, an event monitor
// should be developed as a kernel module and register a callback with
// the dispatcher."
type Callback func(Event)

// Monitor is the event dispatcher plus the optional ring buffer.
type Monitor struct {
	M *kernel.Machine

	// RingEnabled routes events into the ring for user-space
	// consumption. Callbacks always run.
	RingEnabled bool

	Ring *ring.Buffer[Event]

	callbacks []Callback
	files     []string
	fileIdx   map[string]FileID

	// Logged counts LogEvent calls; Enqueued counts ring insertions.
	Logged, Enqueued int64

	nextObj uint64
}

// New creates a monitor with a ring of ringCap entries (power of
// two).
func New(m *kernel.Machine, ringCap int) *Monitor {
	return &Monitor{
		M:       m,
		Ring:    ring.New[Event](ringCap),
		files:   []string{"?"},
		fileIdx: map[string]FileID{"?": 0},
	}
}

// FileID interns a source file name.
func (mon *Monitor) FileID(file string) FileID {
	if id, ok := mon.fileIdx[file]; ok {
		return id
	}
	id := FileID(len(mon.files))
	mon.files = append(mon.files, file)
	mon.fileIdx[file] = id
	return id
}

// FileName resolves an interned id.
func (mon *Monitor) FileName(id FileID) string {
	if int(id) < len(mon.files) {
		return mon.files[id]
	}
	return "?"
}

// Register adds an in-kernel callback.
func (mon *Monitor) Register(cb Callback) {
	mon.callbacks = append(mon.callbacks, cb)
}

// LogEvent dispatches one event on behalf of p, charging the
// dispatcher, per-callback, and enqueue costs. It never blocks
// (ring-full events are dropped and counted), so it is safe from any
// context, including the simulated equivalent of interrupt handlers.
func (mon *Monitor) LogEvent(p *kernel.Process, obj uint64, typ EventType, file FileID, line int32) {
	c := &mon.M.Costs
	p.ChargeAs(kperf.SubMon, c.EventDispatch, true)
	mon.Logged++
	ev := Event{Obj: obj, Type: typ, File: file, Line: line, Time: mon.M.Clock.Now()}
	for _, cb := range mon.callbacks {
		p.ChargeAs(kperf.SubMon, c.EventCallback, true)
		cb(ev)
	}
	if mon.RingEnabled {
		p.ChargeAs(kperf.SubMon, c.EventEnqueue, true)
		mon.Ring.TryPush(ev)
		mon.Enqueued++
	}
}

// AttachSpinLock instruments a kernel spinlock so every acquire and
// release emits an event — this is exactly the dcache_lock
// instrumentation of the paper's evaluation. It returns the object id
// assigned to the lock.
func (mon *Monitor) AttachSpinLock(l *kernel.SpinLock, file string, line int32) uint64 {
	fid := mon.FileID(file)
	obj := mon.NewObjID()
	l.Probe = func(p *kernel.Process, acquire bool, lk *kernel.SpinLock) {
		typ := EvLockRelease
		if acquire {
			typ = EvLockAcquire
		}
		mon.LogEvent(p, obj, typ, fid, line)
	}
	return obj
}

// NewObjID hands out a fresh object identity (the simulated analog of
// the void* the paper stores in each event).
func (mon *Monitor) NewObjID() uint64 {
	mon.nextObj++
	return mon.nextObj
}
