package klint

import (
	"sort"
	"strings"
)

// Layering enforces the module's explicit allowed-import-edge table
// for internal packages. The table below *is* the architecture: every
// edge was reviewed, and a new import edge anywhere under internal/
// fails the build until it is deliberately added here (and to
// DESIGN.md §11 if it shifts a layer boundary).
//
// The load-bearing absences, the ones the dynamic gates depend on:
//
//   - kernel imports no observer: kflight, ktrace, kprobe, kmon and
//     kefence are absent from its row. The machine reaches them only
//     through the structural seams (kernel.FlightHook,
//     kernel.TraceHook, kernel.ProbeTap), which is what makes the
//     observability on/off bit-identity gate a property of the import
//     graph rather than of test luck. kernel → kperf and kernel →
//     klog are deliberate: attribution and the kernel log are
//     substrate the machine charges against, not observers of it.
//   - ktrace and kflight import only kperf and sim: a hook
//     implementation cannot even name a kernel or mem symbol, so the
//     hookpure analyzer only has to close the dynamic-dispatch loophole.
//   - minic (and kcheck above it) never import kernel: verified
//     guest code and its analysis engine know nothing about the
//     machine that hosts them.
//   - sys → ktrace and cosy/kext → ktrace are allowed, documented
//     edges: the syscall layer brackets requests on the concrete
//     (nil-safe, never-charging) *ktrace.Tracer. The kernel proper
//     stays ignorant of it.
var layeringAllowed = map[string][]string{
	"repro/internal/alloc":           {"repro/internal/mem", "repro/internal/sim"},
	"repro/internal/bench":           {"repro/internal/core", "repro/internal/cosy/kext", "repro/internal/cosy/lang", "repro/internal/cosy/lib", "repro/internal/disk", "repro/internal/kefence", "repro/internal/kernel", "repro/internal/kflight", "repro/internal/kgcc", "repro/internal/kmon", "repro/internal/kperf", "repro/internal/kprobe", "repro/internal/ktrace", "repro/internal/mem", "repro/internal/minic", "repro/internal/sim", "repro/internal/splay", "repro/internal/sys", "repro/internal/trace", "repro/internal/vfs", "repro/internal/vfs/memfs", "repro/internal/workload"},
	"repro/internal/core":            {"repro/internal/alloc", "repro/internal/cosy/kext", "repro/internal/disk", "repro/internal/kefence", "repro/internal/kernel", "repro/internal/kflight", "repro/internal/kgcc", "repro/internal/kmon", "repro/internal/kperf", "repro/internal/kprobe", "repro/internal/ktrace", "repro/internal/sim", "repro/internal/sys", "repro/internal/trace", "repro/internal/vfs", "repro/internal/vfs/btfs", "repro/internal/vfs/memfs", "repro/internal/vfs/wrapfs"},
	"repro/internal/cosy/cc":         {"repro/internal/cosy/lang", "repro/internal/cosy/lib", "repro/internal/minic", "repro/internal/sys"},
	"repro/internal/cosy/kext":       {"repro/internal/cosy/lang", "repro/internal/kernel", "repro/internal/kperf", "repro/internal/kring", "repro/internal/ktrace", "repro/internal/mem", "repro/internal/seg", "repro/internal/sim", "repro/internal/sys", "repro/internal/vfs"},
	"repro/internal/cosy/lang":       {},
	"repro/internal/cosy/lib":        {"repro/internal/cosy/lang"},
	"repro/internal/disk":            {"repro/internal/kperf", "repro/internal/sim"},
	"repro/internal/kcheck":          {"repro/internal/minic"},
	"repro/internal/kefence":         {"repro/internal/alloc", "repro/internal/klog", "repro/internal/mem", "repro/internal/sim"},
	"repro/internal/kernel":          {"repro/internal/alloc", "repro/internal/klog", "repro/internal/kperf", "repro/internal/mem", "repro/internal/ring", "repro/internal/sim"},
	"repro/internal/kflight":         {"repro/internal/kperf", "repro/internal/sim"},
	"repro/internal/kgcc":            {"repro/internal/kcheck", "repro/internal/kernel", "repro/internal/mem", "repro/internal/minic", "repro/internal/sim", "repro/internal/splay"},
	"repro/internal/klint":           {},
	"repro/internal/kring":           {"repro/internal/mem"},
	"repro/internal/klint/klinttest": {"repro/internal/klint"},
	"repro/internal/klog":            {"repro/internal/sim"},
	"repro/internal/kmon":            {"repro/internal/kernel", "repro/internal/kperf", "repro/internal/ring", "repro/internal/sim", "repro/internal/sys", "repro/internal/vfs"},
	"repro/internal/kperf":           {"repro/internal/sim"},
	"repro/internal/kprobe":          {"repro/internal/kcheck", "repro/internal/kernel", "repro/internal/kgcc", "repro/internal/kperf", "repro/internal/mem", "repro/internal/minic", "repro/internal/sim"},
	"repro/internal/ktrace":          {"repro/internal/kperf", "repro/internal/sim"},
	"repro/internal/mem":             {"repro/internal/sim"},
	"repro/internal/minic":           {"repro/internal/mem", "repro/internal/sim"},
	"repro/internal/minic/mctest":    {},
	"repro/internal/ring":            {},
	"repro/internal/seg":             {"repro/internal/mem"},
	"repro/internal/sim":             {},
	"repro/internal/splay":           {},
	"repro/internal/sys":             {"repro/internal/kcheck", "repro/internal/kernel", "repro/internal/kgcc", "repro/internal/kperf", "repro/internal/kprobe", "repro/internal/kring", "repro/internal/ktrace", "repro/internal/mem", "repro/internal/minic", "repro/internal/sim", "repro/internal/vfs"},
	"repro/internal/sysgraph":        {},
	"repro/internal/trace":           {"repro/internal/sim", "repro/internal/sys", "repro/internal/sysgraph"},
	"repro/internal/vfs":             {"repro/internal/disk", "repro/internal/kernel", "repro/internal/kperf", "repro/internal/mem", "repro/internal/sim"},
	"repro/internal/vfs/btfs":        {"repro/internal/kernel", "repro/internal/mem", "repro/internal/sim", "repro/internal/vfs"},
	"repro/internal/vfs/memfs":       {"repro/internal/kernel", "repro/internal/mem", "repro/internal/sim", "repro/internal/vfs"},
	"repro/internal/vfs/wrapfs":      {"repro/internal/alloc", "repro/internal/kernel", "repro/internal/mem", "repro/internal/sim", "repro/internal/vfs"},
	"repro/internal/workload":        {"repro/internal/cosy/kext", "repro/internal/cosy/lang", "repro/internal/cosy/lib", "repro/internal/kmon", "repro/internal/kring", "repro/internal/sim", "repro/internal/sys", "repro/internal/vfs"},
}

// Layering checks every internal package's imports against the
// allowed-edge table. cmd/ and examples/ are presentation-layer
// consumers and may import any internal package; the invariants live
// below them.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "internal packages may only import along the reviewed allowed-edge table",
	Run:  runLayering,
}

func runLayering(pass *Pass) error {
	path := pass.Pkg.ImportPath
	if !strings.HasPrefix(path, "repro/internal/") {
		return nil
	}
	allowed, known := layeringAllowed[path]
	if !known {
		if len(pass.Pkg.Files) > 0 {
			pass.Reportf(pass.Pkg.Files[0].Package,
				"package %s is not in the layering table; add its reviewed import edges to internal/klint/layering.go and DESIGN.md §11", path)
		}
		return nil
	}
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			target := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(target, "repro/") {
				continue
			}
			if !ok[target] {
				pass.Reportf(imp.Pos(),
					"import edge %s -> %s is not in the layering table", path, target)
			}
		}
	}
	return nil
}

// LayeringTable returns the allowed-edge table keys in sorted order
// (used by tests and DESIGN.md tooling).
func LayeringTable() []string {
	keys := make([]string, 0, len(layeringAllowed))
	for k := range layeringAllowed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
