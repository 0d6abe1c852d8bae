// Package kflight is the simulated-time flight recorder: a bounded,
// delta-encoded time series over everything kperf measures, plus
// postmortem dumps cut at kills, traps, extension deaths, and run end.
//
// kperf (the metric layer) answers "what did the whole run cost";
// kflight answers "what was happening in the window leading up to
// cycle X". At every scheduler boundary the kernel announces the
// simulated clock through the FlightHook seam; when the clock passes
// an epoch boundary the recorder closes an epoch — the delta of every
// counter, gauge, histogram, and per-(process, mode, subsystem)
// attribution cell since the previous close — into a bounded
// retention ring. Postmortems copy the last K epochs and each trace
// shard's tail, so a kill arrives with its own history attached.
//
// The package inherits kperf's central invariant and strengthens it
// structurally: sampling is host-side only. The recorder is driven
// through an interface that cannot return a cost, it only ever reads
// the clock and kperf state, and it never calls Charge — so a run
// with the recorder attached is bit-identical in simulated cycles to
// one without. The determinism suite asserts exactly that.
//
// kflight imports only kperf and sim; internal/kernel's FlightHook is
// satisfied structurally, keeping the dependency graph acyclic in
// both directions (kernel knows no recorder, recorder knows no
// kernel).
package kflight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// Schema identifies the serialized record format.
const Schema = "kflight/v1"

// Config sizes the recorder. The zero value selects defaults tuned so
// the smallest experiment (E3, ~17M cycles) closes at least one epoch
// and the largest (E7, ~5.3T) stays bounded: with the default epoch
// and retention the ring covers the trailing ~69G cycles (~40
// simulated seconds), everything older is evicted and counted.
type Config struct {
	// EpochCycles is the epoch length in simulated cycles; boundaries
	// are aligned multiples. Epochs are variable-length: the recorder
	// closes one at the first scheduler tick past a boundary, covering
	// everything since the previous close (an idle jump across several
	// boundaries closes one long epoch, not several empty ones).
	// 0 selects DefaultEpochCycles.
	EpochCycles sim.Cycles
	// Retain bounds the in-memory epoch ring; older epochs are evicted
	// (and counted) as new ones close. 0 selects DefaultRetain.
	Retain int
	// PostmortemEpochs is how many trailing epochs a postmortem copies.
	// 0 selects DefaultPostmortemEpochs.
	PostmortemEpochs int
	// TailRecords is how many trace records per shard a postmortem
	// copies. 0 selects DefaultTailRecords.
	TailRecords int
	// MaxDumps caps kill/trap/death postmortems (a kefence trap storm
	// must not hoard host memory); skipped dumps are counted. The
	// run-end dump is exempt. 0 selects DefaultMaxDumps.
	MaxDumps int
}

// Default Config values.
const (
	DefaultEpochCycles      = sim.Cycles(1 << 24) // ~16.8M cycles ≈ 10ms at 1.7GHz
	DefaultRetain           = 4096
	DefaultPostmortemEpochs = 8
	DefaultTailRecords      = 64
	DefaultMaxDumps         = 8
)

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.EpochCycles <= 0 {
		c.EpochCycles = DefaultEpochCycles
	}
	if c.Retain <= 0 {
		c.Retain = DefaultRetain
	}
	if c.PostmortemEpochs <= 0 {
		c.PostmortemEpochs = DefaultPostmortemEpochs
	}
	if c.TailRecords <= 0 {
		c.TailRecords = DefaultTailRecords
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = DefaultMaxDumps
	}
	return c
}

// HistDelta is one histogram's movement across an epoch: how many
// observations it gained and what they summed to, plus the cumulative
// quantile triple at epoch close (quantiles don't delta; the triple
// is recomputed from the merged buckets via kperf.Quantiles).
type HistDelta struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50_upper"`
	P90   int64 `json:"p90_upper"`
	P99   int64 `json:"p99_upper"`
}

// AttrDelta is the cycles one (process, mode, subsystem) cell gained
// across an epoch.
type AttrDelta struct {
	Process string `json:"process"`
	Mode    string `json:"mode"`
	Subsys  string `json:"subsys"`
	Cycles  int64  `json:"cycles"`
}

// Epoch is one closed sampling window. All maps hold only entries
// that changed during the window (delta encoding), so idle epochs are
// nearly free; maps are immutable after close and may be shared by
// postmortem copies.
type Epoch struct {
	Seq   int64      `json:"seq"`
	Start sim.Cycles `json:"start"`
	End   sim.Cycles `json:"end"`
	// Ticks counts scheduler boundaries observed inside the window.
	Ticks int64 `json:"ticks"`
	// Counters holds per-counter deltas (changed only).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds end-of-epoch gauge values (changed only).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Hists holds per-histogram movement (changed only).
	Hists map[string]HistDelta `json:"hists,omitempty"`
	// Attr holds per-(process, mode, subsystem) cycle deltas (nonzero
	// only), rows in deterministic (process, mode, subsys) order.
	Attr []AttrDelta `json:"attr,omitempty"`
}

// SubsysDeltas aggregates the epoch's attribution rows by subsystem.
func (e *Epoch) SubsysDeltas() map[string]int64 {
	out := make(map[string]int64)
	for _, a := range e.Attr {
		out[a.Subsys] += a.Cycles
	}
	return out
}

// TailEvent is one serializable trace record from a shard tail.
type TailEvent struct {
	Process string     `json:"process"`
	Kind    string     `json:"kind"`
	Name    string     `json:"name,omitempty"` // syscall name when resolvable
	Arg     uint32     `json:"arg"`
	Start   sim.Cycles `json:"start"`
	End     sim.Cycles `json:"end"`
	// Req is the ktrace request id that owned the event, 0 when it
	// happened outside any traced request.
	Req uint64 `json:"req,omitempty"`
}

// ReqContext is one process's open traced request at dump time: the
// logical operation it was serving and its trace id, so a postmortem
// answers "which request was in flight" and the tail events can be
// cross-referenced against kprof -req.
type ReqContext struct {
	Process string `json:"process"`
	Op      string `json:"op"`
	TraceID uint64 `json:"trace_id"`
}

// Postmortem is the dump cut at a flight event: what the last K
// epochs looked like and what each process was doing right before.
type Postmortem struct {
	Kind   string     `json:"kind"`
	Detail string     `json:"detail,omitempty"`
	At     sim.Cycles `json:"at"`
	// Epochs are the trailing closed epochs, oldest first; the window
	// open at event time is flushed first so the dump reaches the
	// event itself.
	Epochs []Epoch `json:"epochs,omitempty"`
	// Tail holds the newest trace records per process at dump time.
	Tail []TailEvent `json:"tail,omitempty"`
	// Requests holds each process's open traced request at dump time
	// (processes with no request open are omitted).
	Requests []ReqContext `json:"requests,omitempty"`
}

// Summary is the compact, fully deterministic digest embedded per
// experiment in BENCH_repro.json: every field is a function of
// simulated behavior only, so benchdiff can gate on it.
type Summary struct {
	Epochs       int64            `json:"epochs"`
	Evicted      int64            `json:"evicted,omitempty"`
	Ticks        int64            `json:"ticks"`
	Events       map[string]int64 `json:"events,omitempty"`
	DumpsSkipped int64            `json:"dumps_skipped,omitempty"`
	// PeakEpochSyscalls is the largest per-epoch delta of the
	// sys.calls.total gauge — the run's syscall-rate high-water mark.
	PeakEpochSyscalls int64 `json:"peak_epoch_syscalls,omitempty"`
}

// MergeSummaries folds b into a (multi-machine experiments report one
// combined summary): counts sum, peaks take the max.
func MergeSummaries(a *Summary, b *Summary) *Summary {
	if a == nil {
		if b == nil {
			return nil
		}
		cp := *b
		return &cp
	}
	if b == nil {
		return a
	}
	a.Epochs += b.Epochs
	a.Evicted += b.Evicted
	a.Ticks += b.Ticks
	a.DumpsSkipped += b.DumpsSkipped
	if b.PeakEpochSyscalls > a.PeakEpochSyscalls {
		a.PeakEpochSyscalls = b.PeakEpochSyscalls
	}
	if len(b.Events) > 0 && a.Events == nil {
		a.Events = make(map[string]int64)
	}
	for k, v := range b.Events {
		a.Events[k] += v
	}
	return a
}

// Record is the complete serialized state of a recorder: what ktop
// replays and kprof exports counter tracks from.
type Record struct {
	Schema      string       `json:"schema"`
	Config      Config       `json:"config"`
	Epochs      []Epoch      `json:"epochs"`
	Postmortems []Postmortem `json:"postmortems,omitempty"`
	Summary     Summary      `json:"summary"`
	// Ktrace is the request tracer's latency summary, attached by the
	// writer when a tracer ran alongside the recorder. Kept opaque here
	// so kflight stays ignorant of ktrace (the dependency graph is
	// kperf+sim only); ktop decodes it for the latency panel.
	Ktrace json.RawMessage `json:"ktrace,omitempty"`
}

// Recorder samples one kperf.Set at epoch boundaries. It relies on
// the machine's strict goroutine hand-off exactly like kperf does:
// Tick and Event arrive from whichever goroutine holds the CPU, never
// two at once, so plain fields are race-free.
type Recorder struct {
	cfg Config
	set *kperf.Set

	nextBoundary sim.Cycles
	prevSample   sim.Cycles
	seq          int64
	ticks        int64 // ticks since last close
	totalTicks   int64

	prevCounters map[string]int64
	prevGauges   map[string]int64
	prevHists    map[string]kperf.HistogramSnapshot
	prevAttr     map[*kperf.ProcState][]int64
	scratch      []int64

	ring      []Epoch
	ringStart int
	ringN     int
	evicted   int64

	dumps        []Postmortem
	dumpsSkipped int64
	events       map[string]int64

	peakEpochSyscalls int64
}

// NewRecorder creates a recorder sampling set. The set must be the
// same one wired into the machine the recorder's hook is attached to.
func NewRecorder(cfg Config, set *kperf.Set) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:          cfg,
		set:          set,
		nextBoundary: cfg.EpochCycles,
		prevCounters: make(map[string]int64),
		prevGauges:   make(map[string]int64),
		prevHists:    make(map[string]kperf.HistogramSnapshot),
		prevAttr:     make(map[*kperf.ProcState][]int64),
		ring:         make([]Epoch, 0, 64),
		events:       make(map[string]int64),
	}
}

// Config reports the resolved configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Tick is the kernel.FlightHook boundary callback: one compare on the
// fast path, a sample only when the clock passed an epoch boundary.
func (r *Recorder) Tick(now sim.Cycles) {
	r.ticks++
	r.totalTicks++
	if now < r.nextBoundary {
		return
	}
	r.closeEpoch(now)
}

// Event is the kernel.FlightHook event callback: count it, and for
// dump-worthy kinds cut a postmortem (capped, except run end).
func (r *Recorder) Event(now sim.Cycles, kind, detail string) {
	r.events[kind]++
	runEnd := kind == "run_end"
	if !runEnd && len(r.dumps) >= r.cfg.MaxDumps {
		r.dumpsSkipped++
		return
	}
	// Flush the open window so the dump's epochs reach the event.
	if now > r.prevSample || r.ticks > 0 {
		r.closeEpoch(now)
	}
	pm := Postmortem{Kind: kind, Detail: detail, At: now}
	n := r.ringN
	if n > r.cfg.PostmortemEpochs {
		n = r.cfg.PostmortemEpochs
	}
	if n > 0 {
		pm.Epochs = make([]Epoch, n)
		for i := 0; i < n; i++ {
			pm.Epochs[i] = r.ringAt(r.ringN - n + i)
		}
	}
	pm.Tail = r.tail()
	pm.Requests = r.requests()
	r.dumps = append(r.dumps, pm)
}

// tail collects the newest TailRecords trace records of every shard.
func (r *Recorder) tail() []TailEvent {
	if r.set == nil || r.set.Trace == nil {
		return nil
	}
	var out []TailEvent
	for _, sh := range r.set.Trace.Shards() {
		label := fmt.Sprintf("%s-%d", sh.Name(), sh.PID())
		for _, ev := range sh.Tail(r.cfg.TailRecords) {
			te := TailEvent{
				Process: label,
				Kind:    ev.Kind.String(),
				Arg:     ev.Arg,
				Start:   ev.Start,
				End:     ev.End,
				Req:     ev.Req,
			}
			if ev.Kind == kperf.EvSyscallSpan && r.set.SyscallName != nil {
				te.Name = r.set.SyscallName(int(ev.Arg))
			}
			out = append(out, te)
		}
	}
	return out
}

// requests collects each process's open traced request (spawn order,
// so the listing is deterministic).
func (r *Recorder) requests() []ReqContext {
	if r.set == nil {
		return nil
	}
	var out []ReqContext
	for _, ps := range r.set.Procs() {
		if id, op := ps.Request(); id != 0 {
			out = append(out, ReqContext{Process: ps.Label(), Op: op, TraceID: id})
		}
	}
	return out
}

// closeEpoch samples the set and closes the window [prevSample, now].
func (r *Recorder) closeEpoch(now sim.Cycles) {
	if r.set == nil {
		return
	}
	reg := r.set.Reg.Snapshot()
	prevSyscalls := r.prevGauges["sys.calls.total"]
	e := Epoch{
		Seq:   r.seq,
		Start: r.prevSample,
		End:   now,
		Ticks: r.ticks,
	}
	r.seq++
	r.ticks = 0

	for name, v := range reg.Counters {
		if d := v - r.prevCounters[name]; d != 0 {
			if e.Counters == nil {
				e.Counters = make(map[string]int64)
			}
			e.Counters[name] = d
		}
		r.prevCounters[name] = v
	}
	for name, v := range reg.Gauges {
		prev, seen := r.prevGauges[name]
		if !seen || v != prev {
			if e.Gauges == nil {
				e.Gauges = make(map[string]int64)
			}
			e.Gauges[name] = v
		}
		r.prevGauges[name] = v
	}
	for name, h := range reg.Histograms {
		prev := r.prevHists[name]
		if h.Count != prev.Count || h.Sum != prev.Sum {
			if e.Hists == nil {
				e.Hists = make(map[string]HistDelta)
			}
			p50, p90, p99 := kperf.Quantiles(h.Buckets, h.Count, h.Max)
			e.Hists[name] = HistDelta{
				Count: h.Count - prev.Count,
				Sum:   h.Sum - prev.Sum,
				P50:   p50,
				P90:   p90,
				P99:   p99,
			}
		}
		r.prevHists[name] = h
	}
	for _, ps := range r.set.Procs() {
		r.scratch = ps.ModeSubsysCycles(r.scratch)
		prev := r.prevAttr[ps]
		if prev == nil {
			prev = make([]int64, len(r.scratch))
			r.prevAttr[ps] = prev
		}
		label := "" // formatted once, on the process's first changed cell
		for cell, v := range r.scratch {
			if d := v - prev[cell]; d != 0 {
				if label == "" {
					label = ps.Label()
				}
				e.Attr = append(e.Attr, AttrDelta{
					Process: label,
					Mode:    kperf.Mode(cell / kperf.NSubsys).String(),
					Subsys:  kperf.Subsys(cell % kperf.NSubsys).String(),
					Cycles:  d,
				})
			}
			prev[cell] = v
		}
	}
	sort.Slice(e.Attr, func(i, j int) bool {
		a, b := e.Attr[i], e.Attr[j]
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Subsys < b.Subsys
	})
	if rate := r.prevGauges["sys.calls.total"] - prevSyscalls; rate > r.peakEpochSyscalls {
		r.peakEpochSyscalls = rate
	}

	r.push(e)
	r.prevSample = now
	// Align the next boundary past now; a long jump closes one long
	// epoch instead of a train of empty ones.
	r.nextBoundary = (now/r.cfg.EpochCycles + 1) * r.cfg.EpochCycles
}

// push appends e to the retention ring, evicting the oldest epoch
// when full.
func (r *Recorder) push(e Epoch) {
	if len(r.ring) < r.cfg.Retain {
		r.ring = append(r.ring, e)
		r.ringN++
		return
	}
	if r.ringN < len(r.ring) {
		r.ring[(r.ringStart+r.ringN)%len(r.ring)] = e
		r.ringN++
		return
	}
	r.ring[r.ringStart] = e
	r.ringStart = (r.ringStart + 1) % len(r.ring)
	r.evicted++
}

// ringAt indexes retained epochs oldest-first.
func (r *Recorder) ringAt(i int) Epoch {
	return r.ring[(r.ringStart+i)%len(r.ring)]
}

// Epochs returns the retained epochs oldest-first.
func (r *Recorder) Epochs() []Epoch {
	out := make([]Epoch, r.ringN)
	for i := 0; i < r.ringN; i++ {
		out[i] = r.ringAt(i)
	}
	return out
}

// Postmortems returns the dumps cut so far.
func (r *Recorder) Postmortems() []Postmortem {
	return append([]Postmortem(nil), r.dumps...)
}

// Evicted reports epochs lost to retention.
func (r *Recorder) Evicted() int64 { return r.evicted }

// Summary digests the recorder for BENCH embedding.
func (r *Recorder) Summary() *Summary {
	s := &Summary{
		Epochs:            r.seq,
		Evicted:           r.evicted,
		Ticks:             r.totalTicks,
		DumpsSkipped:      r.dumpsSkipped,
		PeakEpochSyscalls: r.peakEpochSyscalls,
	}
	if len(r.events) > 0 {
		s.Events = make(map[string]int64, len(r.events))
		for k, v := range r.events {
			s.Events[k] = v
		}
	}
	return s
}

// Record assembles the full serializable state.
func (r *Recorder) Record() *Record {
	return &Record{
		Schema:      Schema,
		Config:      r.cfg,
		Epochs:      r.Epochs(),
		Postmortems: r.Postmortems(),
		Summary:     *r.Summary(),
	}
}

// WriteJSON serializes the record.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Record())
}

// ReadRecord parses a serialized record (ktop replay).
func ReadRecord(rd io.Reader) (*Record, error) {
	var rec Record
	if err := json.NewDecoder(rd).Decode(&rec); err != nil {
		return nil, fmt.Errorf("kflight: parse record: %w", err)
	}
	if rec.Schema != Schema {
		return nil, fmt.Errorf("kflight: schema %q, want %q", rec.Schema, Schema)
	}
	return &rec, nil
}
