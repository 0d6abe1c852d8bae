package sys

import (
	"errors"
	"fmt"

	"repro/internal/kcheck"
	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/sim"
)

// ErrKuDead is returned when calling an extension that was killed by
// a runtime violation.
var ErrKuDead = errors.New("sys: kucode extension killed by a runtime violation")

// KuSpec is a ku_load request: the paper's "user-level code in the
// kernel". The source is compiled, statically analyzed with kcheck,
// and KGCC-instrumented inside the kernel; Checks selects which
// check-elimination layers the instrumentation applies (FullChecks
// for plain BCC, KcheckOptions for proof-based elision — E10 measures
// the difference).
type KuSpec struct {
	Source string
	// Entry is the function KuCall invokes; empty selects "main".
	Entry string
	// Checks are the KGCC instrumentation options.
	Checks kgcc.Options
	// Module, when non-empty, is an encoded pre-compiled module
	// (minic.EncodeModule output) loaded instead of compiling Source.
	// The kernel cannot re-derive kcheck's safety proofs from
	// bytecode (an elided check simply does not exist in the
	// artifact), so a pre-compiled extension is quarantined: it runs
	// in its own private address space rather than the shared kucode
	// space, its call graph is structurally checked for recursion,
	// and whatever check opcodes it does carry still run against its
	// object map. A module without checks can therefore corrupt only
	// itself — an unchecked store lands in (or faults in) its private
	// space and at worst kills the extension.
	Module []byte
}

// KuExt is one loaded kucode extension.
type KuExt struct {
	ID    int
	Entry string
	// Insns is the pre-instrumentation instruction count.
	Insns int
	// Stats and Report describe what instrumentation did: how many
	// checks were inserted and how many each elimination layer elided.
	Stats  kgcc.Stats
	Report *kgcc.ElisionReport
	// Calls counts invocations; Cycles accumulates their in-kernel
	// cost.
	Calls  int64
	Cycles sim.Cycles
	// Err is the first runtime violation; like a kprobe program, an
	// extension that trips a check is dead and never runs again.
	Err error
	// CacheHit reports that ku_load found this program in the module
	// cache and skipped compilation, analysis, and the verification
	// charge.
	CacheHit bool

	vm *minic.VM
	km *kgcc.Map
	// entryIdx is Entry resolved to a module function index at load
	// time; ku_call dispatches by index, skipping the name lookup.
	entryIdx int
	dead     bool
}

// ChecksRun reports the dynamic runtime checks this extension has
// executed (bounds lookups plus pointer-arithmetic validations).
func (e *KuExt) ChecksRun() int64 { return e.km.Checks + e.km.ArithOps }

// kuState is the kernel's kucode subsystem: the registry and the
// kernel address space shared by source-admitted extensions, created
// on first ku_load (quarantined module-admitted extensions get
// private spaces in load instead).
type kuState struct {
	as      *mem.AddressSpace
	pending sim.Cycles
	exts    map[int]*KuExt
	nextID  int
	// cache holds admitted modules by content hash, along with the
	// instrumentation metadata ku_load reports, so loading the same
	// program twice compiles, analyzes, and verifies once.
	cache     map[minic.CacheKey]*kuCached
	cacheHits int64
}

// kuCached is one admitted program: the compiled module plus the
// load-time metadata that must survive a cache hit.
type kuCached struct {
	mod   *minic.Module
	insns int
	stats kgcc.Stats
	rep   *kgcc.ElisionReport
	// quarantine marks a module admitted from pre-compiled bytes: the
	// kernel could not run its own kcheck/instrumentation over it, so
	// every extension created from it gets a private address space
	// instead of the shared kucode space (see KuSpec.Module).
	quarantine bool
}

func (k *Kernel) ku() *kuState {
	if k.Ku == nil {
		ku := &kuState{
			exts:   make(map[int]*KuExt),
			nextID: 1,
			cache:  make(map[minic.CacheKey]*kuCached),
		}
		ku.as = mem.NewAddressSpace("kucode", k.M.Phys, &k.M.Costs)
		ku.as.Charge = func(c sim.Cycles) { ku.pending += c }
		k.Ku = ku
	}
	return k.Ku
}

// KuExt returns the loaded extension with the given id.
func (k *Kernel) KuExt(id int) (*KuExt, bool) {
	if k.Ku == nil {
		return nil, false
	}
	e, ok := k.Ku.exts[id]
	return e, ok
}

// KuLoad is the ku_load system call: copy the extension source in,
// compile + analyze + instrument it kernel-side, and install it. Load
// time charges a per-instruction static-analysis cost (the same rate
// the kprobe verifier charges) plus the interpreter setup; it is paid
// once, never on the call path.
//
// Loading rejects extensions the kcheck unit analysis proves unsafe
// to host: recursive call cycles (unbounded kernel stack) and
// accesses that are out of bounds on every execution. Everything else
// is allowed in — the KGCC instrumentation is the runtime backstop,
// exactly the layering the paper prescribes ("static analysis should
// be used to reduce runtime checking").
func (pr *Proc) KuLoad(spec KuSpec) (int, error) {
	in := len(spec.Source) + len(spec.Entry) + 8
	pr.enter(NrKuLoad, in)
	id, cost, err := pr.K.ku().load(pr.K, spec)
	if cost > 0 {
		pr.chargeExec(kperf.SubKu, cost)
	}
	pr.exit(NrKuLoad, in, 8)
	if err != nil {
		return -1, err
	}
	return id, nil
}

func (ku *kuState) load(k *Kernel, spec KuSpec) (int, sim.Cycles, error) {
	entry := spec.Entry
	if entry == "" {
		entry = "main"
	}

	key := KuSpecKey(spec)
	cached, hit := ku.cache[key]
	if hit {
		ku.cacheHits++
	} else {
		var err error
		cached, err = admitKu(spec, entry)
		if err != nil {
			// Admission work was done (and charged by the caller via the
			// returned cost) even though the program was rejected;
			// rejections are not cached.
			return -1, sim.Cycles(cached.insns) * k.M.Costs.ProbeVerifyInstr, err
		}
		ku.cache[key] = cached
	}

	ku.pending = 0
	as := ku.as
	if cached.quarantine {
		// Pre-compiled bytecode carries no proofs the kernel can
		// re-check, so it never shares an address space with other
		// extensions: each load gets a fresh private space whose
		// memory costs still land in the kucode charge.
		as = mem.NewAddressSpace("kucode-ext", k.M.Phys, &k.M.Costs)
		as.Charge = func(c sim.Cycles) { ku.pending += c }
	}
	vm, err := minic.NewVM(as, cached.mod)
	if err != nil {
		ku.pending = 0
		return -1, 0, fmt.Errorf("sys: ku_load: %w", err)
	}
	vm.PerInstr = k.M.Costs.ProbeInstr
	vm.Charge = func(c sim.Cycles) { ku.pending += c }
	km := kgcc.NewMap(&k.M.Costs, func(c sim.Cycles) { ku.pending += c })
	kgcc.Attach(vm, km)

	e := &KuExt{
		ID:       ku.nextID,
		Entry:    entry,
		Insns:    cached.insns,
		Stats:    cached.stats,
		Report:   cached.rep,
		CacheHit: hit,
		vm:       vm,
		km:       km,
		entryIdx: cached.mod.FnIndex(entry),
	}
	ku.nextID++
	ku.exts[e.ID] = e

	// A cache hit pays only VM setup: the verification charge covers
	// admitting program content the kernel has already admitted.
	cost := ku.pending
	if !hit {
		cost += sim.Cycles(cached.insns) * k.M.Costs.ProbeVerifyInstr
	}
	ku.pending = 0
	e.Cycles += cost
	return e.ID, cost, nil
}

// KuSpecKey derives the content-hash cache key for a ku_load spec:
// entry plus module bytes when pre-compiled, otherwise a hash over
// entry, source text, and the check options (different elision layers
// produce different bytecode, so they are different modules). The
// entry is part of the key in both forms because a cache hit skips
// admission, and admission verifies the entry against the content —
// the same bytes under a different entry are a different admission.
func KuSpecKey(spec KuSpec) minic.CacheKey {
	entry := spec.Entry
	if entry == "" {
		entry = "main"
	}
	if len(spec.Module) > 0 {
		return minic.HashParts("kucode-module-v1", entry, string(spec.Module))
	}
	return minic.HashParts("kucode-v1", entry, spec.Source, spec.Checks.CacheString())
}

// BuildKuModule runs the ku_load admission pipeline host-side —
// compile, kcheck safety analysis, KGCC instrumentation, bytecode
// compilation — and returns the module the kernel would cache, so
// user space (kucode -emit) can pre-compile extensions and ship the
// encoded artifact.
func BuildKuModule(spec KuSpec) (*minic.Module, error) {
	entry := spec.Entry
	if entry == "" {
		entry = "main"
	}
	cached, err := admitKu(spec, entry)
	if err != nil {
		return nil, err
	}
	return cached.mod, nil
}

// admitKu runs the admission pipeline on one spec: compile (or
// decode), reject what the kcheck unit analysis proves unsafe to
// host, instrument, and compile to bytecode. On rejection the
// returned kuCached still carries the analyzed instruction count so
// the caller can charge for the analysis work.
//
// The two branches mirror the two safety stories. Source admission
// runs the kernel's own analysis, so its rejections (recursion,
// provable oob) and its elision proofs are trusted, and the
// extension may share the kucode address space. Module admission
// gets opaque bytecode: the decode is defensively validated, the
// unbounded-kernel-stack rejection is re-derived structurally (a
// call-graph cycle is visible in bytecode even if nothing else is),
// and everything the kernel cannot re-prove is answered by
// quarantine — the extension runs in a private address space where
// an unchecked access can only hurt itself.
func admitKu(spec KuSpec, entry string) (*kuCached, error) {
	if len(spec.Module) > 0 {
		mod, err := minic.DecodeModule(spec.Module)
		if err != nil {
			return &kuCached{}, fmt.Errorf("sys: ku_load: %w", err)
		}
		if mod.Fn(entry) == nil {
			return &kuCached{}, fmt.Errorf("sys: ku_load: entry function %q not defined", entry)
		}
		if cyc := moduleCallCycle(mod); cyc != "" {
			return &kuCached{}, fmt.Errorf("sys: ku_load rejected: pre-compiled module: recursion through %q (unbounded kernel stack)", cyc)
		}
		return &kuCached{mod: mod, insns: mod.SrcInsns, quarantine: true}, nil
	}
	unit, err := minic.CompileSource(spec.Source)
	if err != nil {
		return &kuCached{}, fmt.Errorf("sys: ku_load compile: %w", err)
	}
	if unit.Fn(entry) == nil {
		return &kuCached{}, fmt.Errorf("sys: ku_load: entry function %q not defined", entry)
	}
	insns := 0
	for _, name := range unit.Order {
		minic.Optimize(unit.Fns[name])
		insns += len(unit.Fns[name].Code)
	}
	uf := kcheck.AnalyzeUnit(unit)
	for _, w := range uf.Warnings {
		if w.Code == "recursion" || w.Code == "oob" {
			return &kuCached{insns: insns}, fmt.Errorf("sys: ku_load rejected: %s", w)
		}
	}
	// The unit is already optimized above; Instrument per function so
	// InstrumentUnitReport's second Optimize pass is a no-op either way.
	stats, rep := kgcc.InstrumentUnitReport(unit, spec.Checks)
	mod, err := minic.CompileUnit(unit)
	if err != nil {
		return &kuCached{insns: insns}, fmt.Errorf("sys: ku_load: %w", err)
	}
	mod.SrcInsns = insns
	mod.Key = KuSpecKey(spec)
	return &kuCached{mod: mod, insns: insns, stats: stats, rep: rep}, nil
}

// moduleCallCycle detects recursion structurally on bytecode: it
// returns the name of a function on a unit-internal call cycle, or ""
// when the module's call graph is acyclic. This is the module-branch
// analogue of the kcheck recursion rejection the source branch runs —
// the one unit-level safety property that is still fully visible in
// compiled code.
func moduleCallCycle(m *minic.Module) string {
	const (
		white = iota // unvisited
		grey         // on the current DFS path
		black        // fully explored
	)
	color := make([]uint8, len(m.Funcs))
	var cyc string
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = grey
		for pc := range m.Funcs[i].Code {
			in := &m.Funcs[i].Code[pc]
			if in.Op != minic.VCall || in.Imm < 0 {
				continue
			}
			j := int(in.Imm)
			if color[j] == grey {
				cyc = m.Funcs[j].Name
				return true
			}
			if color[j] == white && visit(j) {
				return true
			}
		}
		color[i] = black
		return false
	}
	for i := range m.Funcs {
		if color[i] == white && visit(i) {
			return cyc
		}
	}
	return ""
}

// KuCall is the ku_call system call: invoke extension id's entry
// point with the given arguments in a single crossing. The extension
// runs in kernel mode at interpreter speed plus whatever runtime
// checks survived elision; its whole cost lands in the kucode kperf
// subsystem. A runtime violation kills the extension and returns the
// violation to the caller.
func (pr *Proc) KuCall(id int, args ...int64) (int64, error) {
	in := 8 + 8*len(args)
	pr.K.Ktrace.BeginOp(pr.P.PID, ktrace.OpKuCall)
	defer pr.K.Ktrace.EndOp(pr.P.PID)
	pr.enter(NrKuCall, in)
	ret, err := pr.kuInvoke(id, args...)
	pr.exit(NrKuCall, in, 8)
	if err != nil {
		return 0, err
	}
	return ret, nil
}

// kuInvoke is the in-kernel core of ku_call: run extension id's entry
// point and charge its accumulated interpreter cost. The ku_call trap
// wraps it; ring drains invoke it directly for anycall entries, so an
// extension costs the same whether it was reached by trap or by ring.
func (pr *Proc) kuInvoke(id int, args ...int64) (int64, error) {
	var ret int64
	var err error
	ku := pr.K.Ku
	e := (*KuExt)(nil)
	if ku != nil {
		e = ku.exts[id]
	}
	switch {
	case e == nil:
		err = fmt.Errorf("sys: ku_call: no extension %d", id)
	case e.dead:
		err = ErrKuDead
	default:
		ku.pending = 0
		e.vm.Steps = 0
		if e.entryIdx >= 0 {
			ret, err = e.vm.CallIndex(e.entryIdx, args...)
		} else {
			ret, err = e.vm.Call(e.Entry, args...)
		}
		if err != nil {
			e.Err = err
			e.dead = true
			pr.K.M.FlightEvent(kernel.FlightKuDead,
				fmt.Sprintf("ext %d (%s): %v", id, e.Entry, err))
		}
		e.Calls++
		cost := ku.pending
		ku.pending = 0
		e.Cycles += cost
		if cost > 0 {
			pr.chargeExec(kperf.SubKu, cost)
		}
	}
	return ret, err
}
