package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/kflight"
	"repro/internal/ktrace"
	"repro/internal/sys"
)

// workload is one named benchmark load: a client count, an op stream
// and the system configuration it runs on.
type workload struct {
	name    string
	why     string
	opDef   string
	clients int
	opts    core.Options
	// observers turns on the program's own observability plane
	// (kperf, kflight and ktrace, as kprof and ktop run them).
	observers bool
	sf        *sfConfig
	tbl       *tblConfig
}

// postmark is the smallfile transaction mix; safety and observed run
// it too.
var postmark = sfConfig{
	initial: 100, txns: 1500,
	minSize: 512, maxSize: 9 << 10,
	appendMin: 128, appendMax: 2048,
	// A create costs about twice a delete on btfs; with a 50% create
	// bias the median op would sit on the edge between the two.
	readPct: 50, createPct: 60,
}

var workloads = []*workload{
	{
		name:    "smallfile",
		why:     "4 clients, one op = one PostMark transaction via trap syscalls on memfs with a small buffer cache: sys, vfs and scheduler bound",
		opDef:   "one PostMark transaction: read or append, then create or delete",
		clients: 4,
		opts:    core.Options{CacheBlocks: 256},
		sf:      &postmark,
	},
	{
		name:    "table",
		why:     "1 client, one op = one ring_enter (ingest batch or anycall scan) or one Cosy lookup: kring, cosy, minic and memfs large-file writes",
		opDef:   "one request: an ingest ring_enter, an anycall-pumped scan ring_enter, or one Cosy lookup compound",
		clients: 1,
		tbl: &tblConfig{
			tables: 4, initial: 64, requests: 800,
			batch: 16, window: 64, ingestPct: 25, scanPct: 15,
		},
	},
	{
		name:    "safety",
		why:     "1 client, one op = one PostMark transaction on KGCC-instrumented btfs under Kefence-guarded wrapfs: kgcc, splay, btfs and kefence",
		opDef:   "one PostMark transaction: read or append, then create or delete",
		clients: 1,
		opts:    core.Options{FS: core.FSBtfs, KGCCModule: true, Wrap: core.WrapKefence},
		sf:      &postmark,
	},
	{
		name:      "observed",
		why:       "smallfile's op stream and seed with kperf, kflight and ktrace on: the host cost of the observer plane",
		opDef:     "one PostMark transaction: read or append, then create or delete",
		clients:   4,
		opts:      core.Options{CacheBlocks: 256},
		observers: true,
		sf:        &postmark,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated op streams of one seed, shared by every
// round of a run.
type inputs struct {
	pool []byte
	sf   []*sfStream
	tbl  []tblReq
}

func genInputs(w *workload, seed uint64) *inputs {
	in := &inputs{pool: makePool(seed)}
	if w.sf != nil {
		for c := 0; c < w.clients; c++ {
			in.sf = append(in.sf, genSmallfile(seed, c, *w.sf))
		}
	}
	if w.tbl != nil {
		in.tbl = genTable(seed, *w.tbl)
	}
	return in
}

// recorder collects one round's per-op results. Client processes run
// one at a time, so it needs no locking.
type recorder struct {
	kt       *ktrace.Tracer
	lat      []int64
	ops      int
	failed   int
	firstErr error
	hash     uint64
}

func (r *recorder) opStart(p *proc) int64 {
	start := cpuNow()
	r.kt.BeginOp(p.pid, "perfbench.op")
	p.t.begin(p.pid, spOp)
	return start
}

func (r *recorder) opEnd(p *proc, start int64, err error) {
	p.t.end(p.pid)
	r.kt.EndOp(p.pid)
	r.lat = append(r.lat, cpuNow()-start)
	r.ops++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// digest folds op results into the round's result hash, which must
// be identical across rounds and variants of one seed.
func (r *recorder) digest(vs ...uint64) {
	for _, v := range vs {
		r.hash = (r.hash ^ v) * 0x100000001B3
	}
}

// counters are the program's own cumulative counts, read before and
// after the op phase.
type counters struct {
	calls, copyBytes, ringBytes    int64
	ctxSwitches, tlbMisses, faults int64
	cacheHits, cacheMisses         int64
	kgccChecks, kefenceAllocs      int64
}

func readCounters(s *core.System) counters {
	_, miss, faults, _ := s.M.MemTotals()
	c := counters{
		calls: s.K.TotalCalls(), copyBytes: s.K.BytesIn + s.K.BytesOut, ringBytes: s.K.RingBytes,
		ctxSwitches: s.M.CtxSwitches, tlbMisses: int64(miss), faults: int64(faults),
		cacheHits: s.IO.Hits, cacheMisses: s.IO.Misses,
	}
	if s.Module != nil {
		c.kgccChecks = s.Module.Checks()
	}
	if a := s.KernelAlloc(); a != nil {
		c.kefenceAllocs = a.Stats().TotalAllocs
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		c.calls - o.calls, c.copyBytes - o.copyBytes, c.ringBytes - o.ringBytes,
		c.ctxSwitches - o.ctxSwitches, c.tlbMisses - o.tlbMisses, c.faults - o.faults,
		c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses,
		c.kgccChecks - o.kgccChecks, c.kefenceAllocs - o.kefenceAllocs,
	}
}

// variant is how a round is instrumented.
type variant struct {
	traced    bool // benchmark spans on
	observers bool // the program's observer plane on
}

// roundResult is what one round measured.
type roundResult struct {
	v                   variant
	setupNs, kuloadNs   int64
	opNs                int64 // host CPU time of the op phase
	opWallNs            int64 // wall time of the op phase (traced rounds' clock)
	refNs               int64 // CPU time of the reference job run after the round
	ops, failed         int
	firstErr            error
	lat                 []int64
	hash                uint64
	simCycles           int64
	mallocs, allocBytes uint64
	heapLive            uint64
	ctr                 counters
	spans               *tracer
	// subCycles are kperf's simulated cycles per subsystem over the op
	// phase (observer rounds only).
	subCycles map[string]int64
	// table client counts.
	enters, sqes, scanned, lookups int64
}

// runRound boots a fresh system, populates it, runs the op phase with
// every client in a closed loop and then checks the final tree.
// corrupt >= 0 flips a byte of that verified read (tests only).
func runRound(w *workload, in *inputs, v variant, corrupt int) (*roundResult, error) {
	res := &roundResult{v: v}
	opts := w.opts
	if v.observers {
		opts.Perf = core.NewPerf(0)
		opts.Flight = &kflight.Config{}
		opts.Trace = &ktrace.Config{}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	start := cpuNow()
	s, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	var t *tracer
	root := s.Root
	if v.traced {
		t = newTracer()
		root = tracedFS{FS: s.Root, t: t}
		s.M.Trace = schedHook{t: t, next: s.M.Trace}
		if s.Btfs != nil && s.Btfs.MemTouch != nil {
			s.Btfs.MemTouch = tracedTouch(t, s.Btfs.MemTouch)
		}
	}
	// Every workload works under /b, where the file system is mounted
	// either bare or inside the tracing wrapper, so traced and untraced
	// rounds resolve identical paths.
	if err := s.NS.Mount("/b", root); err != nil {
		return nil, err
	}
	rec := &recorder{kt: s.Ktrace}
	var sfc []*sfClient
	var tc *tblClient
	// The final check lists no btfs directory: btfs.Readdir also
	// returns the block items of the inode after the directory (see
	// README.md), and listing is no op of the workload's.
	list := w.opts.FS != core.FSBtfs
	for c, st := range in.sf {
		cl := &sfClient{st: st, model: make(sfModel), pool: in.pool, rec: rec, corrupt: -1, list: list}
		if c == 0 {
			cl.corrupt = corrupt
		}
		sfc = append(sfc, cl)
	}
	if w.tbl != nil {
		tc = &tblClient{cfg: *w.tbl, reqs: in.tbl, pool: in.pool, rec: rec, corrupt: corrupt,
			nrec: make([]int, w.tbl.tables), eng: s.CosyEngine(kext.ModeIsolated)}
	}
	s.Spawn("setup", func(pr *sys.Proc) error {
		p := newProc(pr, nil)
		for _, c := range sfc {
			if err := c.populate(p); err != nil {
				return err
			}
		}
		if tc != nil {
			return tc.populate(p)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	res.setupNs = cpuNow() - start
	if tc != nil {
		res.kuloadNs = tc.kuloadNs
	}

	// Op phase. The program's counters are read when the first client
	// starts, so the switch away from the set-up process is not counted;
	// kperf's breakdown, too costly to take inside the timed phase,
	// includes that one switch.
	var perf0 map[string]int64
	if s.Perf != nil {
		perf0 = subsystemCycles(s)
	}
	var c0 counters
	var sim0 int64
	started := false
	client := func(run func(*proc) error) func(*sys.Proc) error {
		return func(pr *sys.Proc) error {
			if !started {
				started = true
				c0, sim0 = readCounters(s), int64(s.M.Clock.Now())
				if t != nil {
					t.reset()
				}
			}
			return run(newProc(pr, t))
		}
	}
	for i, c := range sfc {
		s.Spawn(fmt.Sprintf("client%d", i), client(c.run))
	}
	if tc != nil {
		s.Spawn("db", client(tc.run))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	opWall, opStart := time.Now(), cpuNow()
	runErr := s.Run()
	res.opNs, res.opWallNs = cpuNow()-opStart, int64(time.Since(opWall))
	runtime.ReadMemStats(&ms1)
	if runErr != nil {
		return nil, fmt.Errorf("op phase: %w", runErr)
	}
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.simCycles = int64(s.M.Clock.Now()) - sim0
	res.ctr = readCounters(s).sub(c0)
	if perf0 != nil {
		res.subCycles = subsystemCycles(s)
		for k, v := range perf0 {
			res.subCycles[k] -= v
		}
	}
	if t != nil {
		t.off = true
		res.spans = t
	}
	if tc != nil {
		res.enters, res.sqes, res.scanned, res.lookups = tc.enters, tc.sqes, tc.scanned, tc.lookups
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapLive = ms1.HeapAlloc - heapBase

	// Final tree against the model; every mismatch counts as a failure.
	var errs []error
	s.Spawn("verify", func(pr *sys.Proc) error {
		p := newProc(pr, nil)
		for _, c := range sfc {
			errs = append(errs, c.verify(p)...)
		}
		if tc != nil {
			errs = append(errs, tc.verify(p)...)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		errs = append(errs, err)
	}
	for _, err := range errs {
		rec.failed++
		if rec.firstErr == nil {
			rec.firstErr = err
		}
	}
	res.ops, res.failed, res.firstErr = rec.ops, rec.failed, rec.firstErr
	res.lat, res.hash = rec.lat, rec.hash
	return res, nil
}

// subsystemCycles reads kperf's per-subsystem attribution, plus the
// simulated disk service time (disk waits advance no CPU cycles, so
// attribution never sees them).
func subsystemCycles(s *core.System) map[string]int64 {
	sn := s.Perf.Snapshot()
	out := make(map[string]int64, len(sn.SubsystemCycles)+1)
	for k, v := range sn.SubsystemCycles {
		out[k] = v
	}
	out["disk"] = sn.Histograms["disk.access.cycles"].Sum
	return out
}

// errNondeterministic marks rounds of one seed that disagree in
// simulated cycles or results.
var errNondeterministic = errors.New("rounds of one seed differ in simulated cycles or results")
