// Command perfbench is the repository's host-time benchmark. It runs
// one named workload as a closed loop of simulated client processes
// inside this host process, checks every result against its own
// reference model, and prints the workload's metrics by name and unit.
//
// Usage:
//
//	perfbench --workload smallfile|table|safety|observed --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs traced rounds instead and prints the per-layer metrics. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Host time is the process's CPU time (see cpuNow), and the run uses
// one P.
//
// A run is a sequence of rounds. Each round boots a fresh system,
// populates it (the timed set-up), runs the seed's op stream to
// completion (the timed op phase) and compares the final tree with the
// model. Rounds repeat until --seconds have passed; the first round of
// each kind only warms up and is left out of the host-time figures.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	wname := flag.String("workload", "smallfile", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	layers := flag.Bool("layers", false, "print the metric and layer map and exit")
	flag.Parse()

	if *layers {
		printLayers()
		return
	}
	// The simulated processes run one at a time; a second P only adds
	// cross-thread handoffs and idle spinning to the CPU time.
	runtime.GOMAXPROCS(1)
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	host := hostHeader(*seed, w.name, *traceFlag)
	fmt.Println("# host", host)

	rounds, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := result{Metrics: map[string]value{}}
	var values map[string]float64
	var list []metric
	if *traceFlag == 1 {
		values, list = layerMetrics(rounds), perLayer
	} else {
		values, list = endToEndMetrics(rounds, false), endToEnd
		raw := endToEndMetrics(rounds, true)
		var ref []float64
		for _, r := range rounds {
			ref = append(ref, float64(r.refNs)/1e6)
		}
		fmt.Printf("# %s host speed: reference job median %.3f ms (nominal %.0f ms); unscaled"+
			" ops_per_s %.6g, op_p50_us %.6g, op_p99_us %.6g, setup_s %.6g\n",
			w.name, median(ref), refNominalNs/1e6,
			raw["ops_per_s"], raw["op_p50_us"], raw["op_p99_us"], raw["setup_s"])
	}
	failure := checkRounds(rounds)
	for _, r := range rounds {
		out.Attempted += r.ops
		out.Failed += r.failed
	}
	if failure != nil {
		out.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", failure)
	}
	out.Correct = failure == nil
	fmt.Printf("# %s op_fail_ratio = %.6g ratio (%d of %d)\n", w.name,
		float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	for _, m := range list {
		v := values[m.name]
		fmt.Printf("# %s %s = %.6g %s\n", w.name, m.name, v, m.unit)
		out.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// minRounds is the fewest rounds of each kind a run makes: one to warm
// up and two to measure.
const minRounds = 3

// measure runs rounds until the time is up. An untraced run repeats
// the workload's own configuration; a traced run rotates through the
// observers-off, observers-on and traced variants. Traced rounds keep
// the observers off on every workload, so that their host cost stays
// out of the layer times; on observed the op stream is smallfile's.
func measure(w *workload, seed uint64, d time.Duration, traced bool) ([]*roundResult, error) {
	in := genInputs(w, seed)
	variants := []variant{{observers: w.observers}}
	if traced {
		variants = []variant{{}, {observers: true}, tracedVariant}
	}
	job := newRefJob()
	start := time.Now()
	before := job.run()
	var rounds []*roundResult
	for i := 0; i < minRounds*len(variants) || time.Since(start) < d; i++ {
		r, err := runRound(w, in, variants[i%len(variants)], -1)
		if err != nil {
			return nil, err
		}
		after := job.run()
		r.refNs = (before + after) / 2
		before = after
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// tracedVariant is the configuration of a traced run's span-timed
// rounds.
var tracedVariant = variant{traced: true}

// checkRounds reports the first round with failed ops and the first
// round whose simulated cycles, op count or result hash differ from the
// first round's: every round and variant of one seed must agree bit for
// bit, whether or not its ops failed.
func checkRounds(rounds []*roundResult) error {
	var failed, diverged error
	for i, r := range rounds {
		if r.failed > 0 && failed == nil {
			failed = fmt.Errorf("round %d: %d failed ops, first: %w", i, r.failed, r.firstErr)
		}
		if (r.simCycles != rounds[0].simCycles || r.hash != rounds[0].hash || r.ops != rounds[0].ops) && diverged == nil {
			diverged = fmt.Errorf("%w: round %d (%+v) ran %d ops, %d cycles, hash %x; round 0 ran %d, %d, hash %x",
				errNondeterministic, i, r.v, r.ops, r.simCycles, r.hash, rounds[0].ops, rounds[0].simCycles, rounds[0].hash)
		}
	}
	return errors.Join(failed, diverged)
}

// measured returns the rounds of variant v after its warm-up round.
func measured(rounds []*roundResult, v variant) []*roundResult {
	var out []*roundResult
	seen := false
	for _, r := range rounds {
		if r.v != v {
			continue
		}
		if seen {
			out = append(out, r)
		}
		seen = true
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// scale quotes r's host times at the reference job's nominal speed
// (see refJob); raw leaves them as measured.
func (r *roundResult) scale(raw bool) float64 {
	if raw || r.refNs == 0 {
		return 1
	}
	return refNominalNs / float64(r.refNs)
}

func scaleNs(ns int64, f float64) int64 { return int64(float64(ns) * f) }

// nsPerOp is the median over rounds of op-phase host ns per op.
func nsPerOp(rs []*roundResult, raw bool) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, float64(r.opNs)/float64(r.ops)*r.scale(raw))
	}
	return median(xs)
}

func allocsPerOp(rs []*roundResult) (allocs, bytes float64) {
	var m, b uint64
	var ops int
	for _, r := range rs {
		m += r.mallocs
		b += r.allocBytes
		ops += r.ops
	}
	return float64(m) / float64(ops), float64(b) / float64(ops)
}

// endToEndMetrics returns the end-to-end metrics: host times scaled
// round by round to the reference job's nominal speed, or as measured
// when raw is set.
func endToEndMetrics(rounds []*roundResult, raw bool) map[string]float64 {
	rs := measured(rounds, rounds[0].v)
	var lat []int64
	var heap, setup []float64
	for _, r := range rs {
		f := r.scale(raw)
		for _, l := range r.lat {
			lat = append(lat, scaleNs(l, f))
		}
		heap = append(heap, float64(r.heapLive)/(1<<20))
		setup = append(setup, float64(r.setupNs)/1e9*f)
	}
	lat = sortedCopy(lat)
	allocs, bytes := allocsPerOp(rs)
	return map[string]float64{
		"ops_per_s":          1e9 / nsPerOp(rs, raw),
		"op_p50_us":          quantile(lat, 0.50) / 1e3,
		"op_p99_us":          quantile(lat, 0.99) / 1e3,
		"sim_cycles_per_op":  float64(rounds[0].simCycles) / float64(rounds[0].ops),
		"allocs_per_op":      allocs,
		"alloc_bytes_per_op": bytes,
		"heap_live_mb":       median(heap),
		"setup_s":            median(setup),
	}
}

// layerMetrics derives the per-layer metrics of a traced run: span
// times from the traced rounds (wall clock, scaled like the end-to-end
// host times), program counters from the same rounds, observer
// overhead from the observers-off and -on rounds, and kperf's
// simulated breakdown from an observers-on round.
func layerMetrics(rounds []*roundResult) map[string]float64 {
	tr := measured(rounds, tracedVariant)
	off := measured(rounds, variant{})
	on := measured(rounds, variant{observers: true})

	var spans [nSpanKinds]spanStats
	var ops, wallNs, enters, sqes, scanned, lookups int64
	for _, r := range tr {
		f := r.scale(false)
		for k := range spans {
			s := &r.spans.spans[k]
			spans[k].n += s.n
			spans[k].total += scaleNs(s.total, f)
			spans[k].self += scaleNs(s.self, f)
			for _, d := range s.durs {
				spans[k].durs = append(spans[k].durs, scaleNs(d, f))
			}
		}
		ops += int64(r.ops)
		wallNs += scaleNs(r.opWallNs, f)
		enters += r.enters
		sqes += r.sqes
		scanned += r.scanned
		lookups += r.lookups
	}
	perOp := func(x int64) float64 { return float64(x) / float64(ops) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	pct := func(k spanKind, q float64) float64 { return quantile(sortedCopy(spans[k].durs), q) }

	var sysSelf, vfsTotal, vfsCalls int64
	for k := spanKind(0); k < nSpanKinds; k++ {
		switch {
		case k.isSys():
			sysSelf += spans[k].self
		case k.isVfs():
			vfsTotal += spans[k].total
			vfsCalls += spans[k].n
		}
	}
	// Counters are deterministic: any round of the seed gives them.
	c := rounds[0].ctr
	r0 := rounds[0]
	n0 := func(x int64) float64 { return float64(x) / float64(r0.ops) }

	allocsOff, _ := allocsPerOp(off)
	allocsOn, _ := allocsPerOp(on)
	var kuload []float64
	for _, r := range off {
		kuload = append(kuload, float64(r.kuloadNs)/1e6*r.scale(false))
	}

	m := map[string]float64{
		"sys.crossings_per_op":        n0(c.calls),
		"sys.copy_bytes_per_op":       n0(c.copyBytes),
		"sys.self_us_per_op":          perOp(sysSelf) / 1e3,
		"sys.open_p50_ns":             pct(spSysOpen, 0.5),
		"sys.creat_p50_ns":            pct(spSysCreat, 0.5),
		"sys.read_p50_ns":             pct(spSysRead, 0.5),
		"sys.write_p50_ns":            pct(spSysWrite, 0.5),
		"sys.close_p50_ns":            pct(spSysClose, 0.5),
		"sys.unlink_p50_ns":           pct(spSysUnlink, 0.5),
		"vfs.calls_per_op":            perOp(vfsCalls),
		"vfs.fs_us_per_op":            perOp(vfsTotal) / 1e3,
		"vfs.lookup_p50_ns":           pct(spVfsLookup, 0.5),
		"vfs.create_p50_ns":           pct(spVfsCreate, 0.5),
		"vfs.unlink_p50_ns":           pct(spVfsUnlink, 0.5),
		"vfs.read_p50_ns":             pct(spVfsRead, 0.5),
		"vfs.write_p50_ns":            pct(spVfsWrite, 0.5),
		"vfs.write_p99_ns":            pct(spVfsWrite, 0.99),
		"io.hit_ratio":                ratio(c.cacheHits, c.cacheHits+c.cacheMisses),
		"kernel.ctx_switches_per_op":  n0(c.ctxSwitches),
		"kernel.sched_us_per_op":      perOp(wallNs-spans[spOp].total) / 1e3,
		"mem.tlb_misses_per_op":       n0(c.tlbMisses),
		"mem.faults_per_op":           n0(c.faults),
		"kgcc.checks_per_op":          n0(c.kgccChecks),
		"kgcc.touch_us_per_op":        perOp(spans[spKgcc].total) / 1e3,
		"kgcc.ns_per_check":           ratio(spans[spKgcc].total, c.kgccChecks*int64(len(tr))),
		"kefence.allocs_per_op":       n0(c.kefenceAllocs),
		"kring.enter_p50_us":          quantile(sortedCopy(append(append([]int64(nil), spans[spRingIngest].durs...), spans[spRingScan].durs...)), 0.5) / 1e3,
		"kring.sqes_per_enter":        ratio(sqes, enters),
		"kring.ns_per_sqe":            ratio(spans[spRingIngest].total+spans[spRingScan].total, sqes),
		"kring.anycall_ns_per_record": ratio(spans[spRingScan].total, scanned),
		"kring.bytes_per_op":          n0(c.ringBytes),
		"cosy.exec_p50_us":            pct(spCosy, 0.5) / 1e3,
		"cosy.ns_per_lookup":          ratio(spans[spCosy].total, lookups),
		"minic.kuload_ms":             median(kuload),
		"obs.overhead_frac":           nsPerOp(on, false)/nsPerOp(off, false) - 1,
		"obs.extra_allocs_per_op":     allocsOn - allocsOff,
		"trace.overhead_frac":         nsPerOp(tr, false)/nsPerOp(off, false) - 1,
	}
	for _, r := range rounds {
		if r.subCycles != nil {
			for _, s := range simSubsystems {
				m["sim."+s.metric+"_cycles_per_op"] = n0(r.subCycles[s.kperf])
			}
			break
		}
	}
	return m
}

// hostHeader stamps the result with what it ran on.
func hostHeader(seed uint64, wname string, trace int) string {
	h := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"godebug":    os.Getenv("GODEBUG"),
		"seed":       seed,
		"workload":   wname,
		"trace":      trace,
	}
	b, err := json.Marshal(h)
	if err != nil {
		return fmt.Sprint(h)
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printLayers prints the workload table and the metric/layer map.
func printLayers() {
	for _, w := range workloads {
		fmt.Printf("workload %-9s clients=%d op=%q\n  why: %s\n", w.name, w.clients, w.opDef, w.why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %-20s %-7s better=%s bound=%g  %s\n", m.name, m.unit, m.better(), m.bound, m.what)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer  %-30s %-7s layer=%-9s moves=%s  %s\n", m.name, m.unit, m.layer, m.moves, m.what)
	}
}
