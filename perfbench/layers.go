package main

// metric describes one reported number. End-to-end metrics carry the
// bound BENCHMARK.json gives them; per-layer metrics name the module
// they measure and the end-to-end metric and workload they should
// move — the layer map.
type metric struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only
	layer  string  // per-layer only
	moves  string  // per-layer only: "metric@workload,..."
	what   string
}

var endToEnd = []metric{
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.2,
		what: "ops per host CPU second at the reference job's speed, median over the run's rounds"},
	{name: "op_p50_us", unit: "us", bound: 0.2,
		what: "host CPU time per op at the reference job's speed, median over every op of the run"},
	{name: "op_p99_us", unit: "us", bound: 0.25,
		what: "host CPU time per op at the reference job's speed, 99th percentile over every op"},
	{name: "sim_cycles_per_op", unit: "cycles", bound: 0.05,
		what: "simulated cycles per op; deterministic per seed"},
	{name: "allocs_per_op", unit: "count", bound: 0.05,
		what: "Go heap allocations per op"},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.1,
		what: "Go heap bytes allocated per op"},
	{name: "heap_live_mb", unit: "MB", bound: 0.1,
		what: "live heap the round's system holds after a forced GC at the end of the op phase, median over rounds"},
	{name: "setup_s", unit: "s", bound: 0.25,
		what: "boot, populate and KuLoad host CPU time at the reference job's speed, median over the measured rounds"},
}

var perLayer = append([]metric{
	{name: "sys.crossings_per_op", unit: "count", layer: "sys", moves: "ops_per_s@table",
		what: "trap syscalls (user/kernel crossings) per op"},
	{name: "sys.copy_bytes_per_op", unit: "B", layer: "sys", moves: "alloc_bytes_per_op@smallfile",
		what: "bytes copied across the boundary per op"},
	{name: "sys.self_us_per_op", unit: "us", layer: "sys", moves: "ops_per_s@smallfile",
		what: "syscall span time minus the vfs time inside it: trap, namespace walk, fd table, copies"},
	{name: "sys.open_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "sys.creat_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "sys.read_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "sys.write_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "sys.close_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "sys.unlink_p50_ns", unit: "ns", layer: "sys", moves: "op_p50_us@smallfile,op_p50_us@safety"},
	{name: "vfs.calls_per_op", unit: "count", layer: "vfs", moves: "ops_per_s@smallfile",
		what: "calls into the mounted vfs.FS per op"},
	{name: "vfs.fs_us_per_op", unit: "us", layer: "vfs", moves: "ops_per_s@table,ops_per_s@safety",
		what: "time inside the mounted file system per op"},
	{name: "vfs.lookup_p50_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@smallfile"},
	{name: "vfs.create_p50_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@smallfile"},
	{name: "vfs.unlink_p50_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@smallfile"},
	{name: "vfs.read_p50_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@table"},
	{name: "vfs.write_p50_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@table"},
	{name: "vfs.write_p99_ns", unit: "ns", layer: "vfs", moves: "ops_per_s@table"},
	{name: "io.hit_ratio", unit: "ratio", higher: true, layer: "vfs", moves: "sim_cycles_per_op@smallfile",
		what: "buffer-cache hits over accesses"},
	{name: "kernel.ctx_switches_per_op", unit: "count", layer: "kernel", moves: "op_p99_us@smallfile"},
	{name: "kernel.sched_us_per_op", unit: "us", layer: "kernel", moves: "ops_per_s@smallfile",
		what: "host time inside Run covered by no op span: dispatch, handoff, idle advance"},
	{name: "mem.tlb_misses_per_op", unit: "count", layer: "mem", moves: "sim_cycles_per_op@safety,sim_cycles_per_op@smallfile"},
	{name: "mem.faults_per_op", unit: "count", layer: "mem", moves: "sim_cycles_per_op@safety,sim_cycles_per_op@smallfile"},
	{name: "kgcc.checks_per_op", unit: "count", layer: "kgcc", moves: "sim_cycles_per_op@safety"},
	{name: "kgcc.touch_us_per_op", unit: "us", layer: "kgcc", moves: "ops_per_s@safety",
		what: "time inside the KGCC module's MemTouch hook per op"},
	{name: "kgcc.ns_per_check", unit: "ns", layer: "kgcc", moves: "ops_per_s@safety"},
	{name: "kefence.allocs_per_op", unit: "count", layer: "kefence", moves: "allocs_per_op@safety",
		what: "guarded allocations per op, from the wrapfs allocator's stats"},
	{name: "kring.enter_p50_us", unit: "us", layer: "kring", moves: "op_p50_us@table"},
	{name: "kring.sqes_per_enter", unit: "count", higher: true, layer: "kring", moves: "ops_per_s@table"},
	{name: "kring.ns_per_sqe", unit: "ns", layer: "kring", moves: "ops_per_s@table"},
	{name: "kring.anycall_ns_per_record", unit: "ns", layer: "kring", moves: "ops_per_s@table",
		what: "anycall-pumped scan time per record scanned"},
	{name: "kring.bytes_per_op", unit: "B", layer: "kring", moves: "alloc_bytes_per_op@table",
		what: "payload bytes moved through ring data areas per op"},
	{name: "cosy.exec_p50_us", unit: "us", layer: "cosy", moves: "op_p50_us@table"},
	{name: "cosy.ns_per_lookup", unit: "ns", layer: "cosy", moves: "ops_per_s@table"},
	{name: "minic.kuload_ms", unit: "ms", layer: "minic", moves: "setup_s@table",
		what: "host time of the pump extension's KuLoad, median over the measured plain rounds"},
	{name: "obs.overhead_frac", unit: "ratio", layer: "observers", moves: "ops_per_s@observed",
		what: "host time per op with kperf, kflight and ktrace on over the same with them off, minus 1"},
	{name: "obs.extra_allocs_per_op", unit: "count", layer: "observers", moves: "allocs_per_op@observed"},
	{name: "trace.overhead_frac", unit: "ratio", layer: "perfbench", moves: "none",
		what: "host time per op of traced rounds over plain ones, minus 1"},
}, simMetrics()...)

// simSubsystems are kperf's subsystems reported as sim.<name>_cycles_per_op
// (kperf names kucode "kucode"; the metric says "ku").
var simSubsystems = []struct{ metric, kperf string }{
	{"kern", "kern"}, {"user", "user"}, {"boundary", "boundary"}, {"mem", "mem"},
	{"alloc", "alloc"}, {"sched", "sched"}, {"cosy", "cosy"}, {"kefence", "kefence"},
	{"ku", "kucode"}, {"ring", "ring"}, {"disk", "disk"},
}

func simMetrics() []metric {
	var ms []metric
	for _, s := range simSubsystems {
		ms = append(ms, metric{name: "sim." + s.metric + "_cycles_per_op", unit: "cycles",
			layer: "sim", moves: "sim_cycles_per_op@all",
			what: "simulated " + s.kperf + " cycles per op, from one kperf-on round"})
	}
	return ms
}

func (m metric) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}
