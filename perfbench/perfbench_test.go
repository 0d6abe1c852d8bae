package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sys"
)

// small returns w with its op streams shrunk to test size.
func small(w *workload) *workload {
	c := *w
	if w.sf != nil {
		sf := *w.sf
		sf.initial, sf.txns = 20, 120
		c.sf = &sf
	}
	if w.tbl != nil {
		tbl := *w.tbl
		tbl.requests = 120
		c.tbl = &tbl
	}
	return &c
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genInputs(w, 7), genInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, genInputs(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

func TestDecksDealExactCounts(t *testing.T) {
	d := newRNG(3, 0).deck(1000, 37)
	n := 0
	for _, x := range d {
		if x {
			n++
		}
	}
	if n != 370 {
		t.Fatalf("deck dealt %d of 1000 true, want 370", n)
	}
}

func TestCorruptedReadCountsAsFailure(t *testing.T) {
	for _, name := range []string{"smallfile", "table"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w = small(w)
		r, err := runRound(w, genInputs(w, 1), variant{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		// The failed op leaves the rest of its transaction undone, so
		// later ops may fail too; the first failure must be the mismatch.
		if r.failed == 0 || !errors.Is(r.firstErr, errMismatch) {
			t.Errorf("%s: corrupted read gave %d failures (first %v), want a mismatch", name, r.failed, r.firstErr)
		}
	}
}

// On safety the final check does not list directories, so a file the
// model dropped but the file system still holds must fail its stat.
func TestLeftoverFileCountsAsFailure(t *testing.T) {
	w, err := findWorkload("safety")
	if err != nil {
		t.Fatal(err)
	}
	w = small(w)
	in := genInputs(w, 1)
	s, err := core.New(w.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.NS.Mount("/b", s.Root); err != nil {
		t.Fatal(err)
	}
	c := &sfClient{st: in.sf[0], model: make(sfModel), pool: in.pool, rec: &recorder{}, corrupt: -1}
	var clean, leftover []error
	s.Spawn("check", func(pr *sys.Proc) error {
		p := newProc(pr, nil)
		if err := c.populate(p); err != nil {
			return err
		}
		clean = c.verify(p)
		delete(c.model, c.st.initial[3])
		leftover = c.verify(p)
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatalf("populated tree fails its check: %v", clean)
	}
	if len(leftover) != 1 || !errors.Is(leftover[0], errMismatch) {
		t.Errorf("leftover %s gave %v, want one mismatch", c.st.initial[3], leftover)
	}
}

// A round with failed ops must not hide a later round that differs
// in simulated results.
func TestCheckRoundsReportsDivergenceBesideFailures(t *testing.T) {
	rounds := []*roundResult{
		{ops: 10, failed: 1, firstErr: errMismatch, simCycles: 100, hash: 1},
		{ops: 10, failed: 1, firstErr: errMismatch, simCycles: 101, hash: 1},
	}
	err := checkRounds(rounds)
	if !errors.Is(err, errMismatch) || !errors.Is(err, errNondeterministic) {
		t.Fatalf("checkRounds = %v, want both the failed ops and the divergence", err)
	}
}

// Traced and observer rounds must be bit-identical to plain ones in
// simulated cycles, op results and program counters.
func TestTracedRoundsMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		w = small(w)
		in := genInputs(w, 1)
		var base *roundResult
		for _, v := range []variant{{}, {traced: true}, {observers: true}, {traced: true, observers: true}} {
			r, err := runRound(w, in, v, -1)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = r
				continue
			}
			if r.simCycles != base.simCycles || r.hash != base.hash || r.ops != base.ops || r.ctr != base.ctr {
				t.Errorf("%s %+v: %d cycles, hash %x, %d ops, %+v; plain: %d, %x, %d, %+v", w.name, v,
					r.simCycles, r.hash, r.ops, r.ctr, base.simCycles, base.hash, base.ops, base.ctr)
			}
		}
	}
}

// Every workload runs clean on a seed not used while the benchmark was
// tuned.
func TestHeldOutSeedRunsClean(t *testing.T) {
	for _, w := range workloads {
		w = small(w)
		r, err := runRound(w, genInputs(w, 90210), variant{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Errorf("%s: %d of %d ops failed, first: %v", w.name, r.failed, r.ops, r.firstErr)
		}
	}
}

func TestLayerMetricsCoverTheList(t *testing.T) {
	w := small(workloads[0])
	rounds, err := measure(w, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	got := layerMetrics(rounds)
	for _, m := range perLayer {
		if _, ok := got[m.name]; !ok {
			t.Errorf("traced run does not report %s", m.name)
		}
		delete(got, m.name)
	}
	for name := range got {
		t.Errorf("traced run reports %s, which the metric list lacks", name)
	}
	if got := endToEndMetrics(rounds[:1], true); len(got) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(got), len(endToEnd))
	}
}

func TestTracerSelfTimeExcludesChildrenAndOtherProcesses(t *testing.T) {
	tr := newTracer()
	h := schedHook{t: tr}
	tr.begin(1, spOp)
	tr.begin(1, spSysRead)
	tr.begin(1, spVfsRead)
	h.OnBlock(1, 0, 0) // process 1 waits on the disk
	tr.begin(2, spOp)
	spin(2e6)
	tr.end(2)
	h.OnRun(1, 0)
	tr.end(1)
	tr.end(1)
	tr.end(1)
	op, read, vfs := tr.spans[spOp], tr.spans[spSysRead], tr.spans[spVfsRead]
	if op.n != 2 || read.n != 1 || vfs.n != 1 {
		t.Fatalf("span counts %d/%d/%d", op.n, read.n, vfs.n)
	}
	if read.self != read.total-vfs.total {
		t.Errorf("read self %d != total %d - child %d", read.self, read.total, vfs.total)
	}
	// Process 2's busy span ran while process 1 was blocked; none of it
	// may land in process 1's spans.
	if vfs.total >= 2e6 {
		t.Errorf("blocked vfs span absorbed another process's %d ns", vfs.total)
	}
}

func spin(ns int64) {
	start := newTracer()
	for start.now() < ns {
	}
}

func TestPumpSourceMatchesBlockSize(t *testing.T) {
	if !strings.Contains(pumpSource, "* "+strconv.Itoa(blkSize)+")") {
		t.Fatalf("pumpSource does not stride by blkSize %d", blkSize)
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, benchmark has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better() || d.Bound != m.bound {
			t.Errorf("end_to_end %d: %+v, benchmark has %+v", i, d, m)
		}
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better() {
			t.Errorf("per_layer %d: %+v, benchmark has %+v", i, d, m)
		}
	}
}
