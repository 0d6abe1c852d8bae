// Package trace implements the paper's system-call logging and
// analysis pipeline (§2.2): an strace/audit-style recorder attached
// to the syscall layer as an exit tap, the weighted system-call graph
// built from consecutive-call transitions, frequent-sequence mining, and
// the consolidation-savings estimator used for the paper's
// "28.15 seconds per hour" projection.
package trace

import (
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/sysgraph"
)

// Event is one recorded system call.
type Event struct {
	Time sim.Cycles
	PID  int
	Nr   sys.Nr
	// In and Out are the bytes copied across the user/kernel boundary
	// in each direction.
	In, Out int
}

// Recorder captures syscall activity; core.EnableTrace attaches it to
// the syscall layer as an exit tap.
type Recorder struct {
	clock *sim.Clock

	// KeepEvents controls whether the full event list is retained
	// (the savings estimator needs it); the graph and counters are
	// always maintained.
	KeepEvents bool

	Events []Event
	Graph  *sysgraph.Graph

	calls       []int64
	bytesIn     int64
	bytesOut    int64
	first, last sim.Cycles
	any         bool
}

// NewRecorder creates a recorder stamping events from clock.
func NewRecorder(clock *sim.Clock) *Recorder {
	return &Recorder{
		clock:      clock,
		KeepEvents: true,
		Graph:      sysgraph.New(func(n sysgraph.Node) string { return sys.Nr(n).String() }),
		calls:      make([]int64, sys.Count()),
	}
}

// Syscall records one completed call: in and out are the bytes
// copied across the boundary in each direction.
func (r *Recorder) Syscall(pid int, nr sys.Nr, in, out int) {
	t := r.clock.Now()
	if !r.any {
		r.first = t
		r.any = true
	}
	r.last = t
	if r.KeepEvents {
		r.Events = append(r.Events, Event{Time: t, PID: pid, Nr: nr, In: in, Out: out})
	}
	r.Graph.Observe(pid, sysgraph.Node(nr))
	if int(nr) < len(r.calls) {
		r.calls[nr]++
	}
	r.bytesIn += int64(in)
	r.bytesOut += int64(out)
}

// TotalCalls reports the number of recorded calls.
func (r *Recorder) TotalCalls() int64 {
	var t int64
	for _, c := range r.calls {
		t += c
	}
	return t
}

// Calls reports the count for one syscall. Out-of-range numbers
// report zero rather than panicking (Syscall quietly ignores them
// too, so the two stay consistent).
func (r *Recorder) Calls(nr sys.Nr) int64 {
	if int(nr) >= len(r.calls) {
		return 0
	}
	return r.calls[nr]
}

// TotalBytes reports all bytes copied across the boundary.
func (r *Recorder) TotalBytes() int64 { return r.bytesIn + r.bytesOut }

// Duration reports the trace's time span.
func (r *Recorder) Duration() sim.Cycles {
	if !r.any {
		return 0
	}
	return r.last - r.first
}

// TopPatterns mines the syscall graph for consolidation candidates.
func (r *Recorder) TopPatterns(minWeight uint64, maxLen int) []sysgraph.Path {
	return r.Graph.MinePaths(minWeight, maxLen)
}
