package kefence

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/klog"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newKefence() (*Allocator, *mem.AddressSpace, *klog.Log) {
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("kernel", mem.NewPhys(256<<20), &costs)
	log := klog.New(nil, 0)
	return New(as, &costs, nil, log), as, log
}

func TestAllocWriteWithinBounds(t *testing.T) {
	a, as, _ := newKefence()
	buf, err := a.AllocSite(100, "test.c:1")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	if err := as.WriteBytes(buf, data); err != nil {
		t.Fatalf("in-bounds write faulted: %v", err)
	}
	got := make([]byte, 100)
	if err := as.ReadBytes(buf, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatal("data mismatch")
		}
	}
	if len(a.Reports()) != 0 {
		t.Fatalf("spurious reports: %v", a.Reports())
	}
}

func TestOverflowDetectedAtFirstByte(t *testing.T) {
	a, as, log := newKefence()
	buf, _ := a.AllocSite(100, "wrapfs.c:42")
	// Buffer is aligned against the guard: byte 100 is the guard
	// page's first byte.
	err := as.WriteBytes(buf+100, []byte{0xFF})
	if err == nil {
		t.Fatal("overflow write succeeded in crash mode")
	}
	var f *mem.Fault
	if !errors.As(err, &f) || !f.Guard {
		t.Fatalf("err = %v", err)
	}
	reports := a.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.Site != "wrapfs.c:42" || r.Size != 100 || r.Buffer != buf {
		t.Fatalf("report = %+v", r)
	}
	entries := log.Grep("kefence: buffer overflow")
	if len(entries) != 1 {
		t.Fatalf("syslog entries = %d", len(entries))
	}
	if !strings.Contains(entries[0].Msg, "wrapfs.c:42") {
		t.Fatalf("log missing site: %s", entries[0].Msg)
	}
}

func TestOverflowReadDetected(t *testing.T) {
	a, as, _ := newKefence()
	buf, _ := a.Alloc(64)
	if err := as.ReadBytes(buf+64, make([]byte, 1)); err == nil {
		t.Fatal("overflow read succeeded")
	}
	if len(a.Reports()) != 1 || a.Reports()[0].Access != mem.AccessRead {
		t.Fatalf("reports = %+v", a.Reports())
	}
}

func TestUnderflowWithGuardBefore(t *testing.T) {
	a, as, _ := newKefence()
	a.GuardBefore = true
	buf, _ := a.AllocSite(100, "under.c:7")
	// With the guard before, the buffer starts at the page start;
	// byte -1 is the guard page's last byte.
	if err := as.WriteBytes(buf-1, []byte{1}); err == nil {
		t.Fatal("underflow write succeeded")
	}
	reports := a.Reports()
	if len(reports) != 1 || !reports[0].Underflow {
		t.Fatalf("reports = %+v", reports)
	}
	// Overflow within the same page (after the data) is NOT detected
	// in this configuration — the paper's stated limitation.
	if err := as.WriteBytes(buf+mem.Addr(100), []byte{1}); err != nil {
		t.Fatalf("overflow unexpectedly detected with guard-before: %v", err)
	}
}

func TestPageMultipleDetectsBoth(t *testing.T) {
	// "unless the allocation is in multiples of the page size": a
	// page-multiple buffer is page-aligned at both ends, so guard
	// placement catches its side exactly, and the other side has no
	// slack to hide in. With guard after, overflow detection is
	// immediate.
	a, as, _ := newKefence()
	buf, _ := a.Alloc(mem.PageSize)
	if buf&mem.PageMask != 0 {
		t.Fatalf("page-multiple buffer not aligned: %#x", uint64(buf))
	}
	if err := as.WriteBytes(buf+mem.PageSize, []byte{1}); err == nil {
		t.Fatal("overflow at page boundary not detected")
	}
}

func TestModeCrashKills(t *testing.T) {
	a, as, _ := newKefence()
	a.Mode = ModeCrash
	buf, _ := a.Alloc(10)
	if err := as.WriteBytes(buf+10, []byte{1}); err == nil {
		t.Fatal("crash mode allowed the write")
	}
}

func TestModeLogROAllowsReadsBlocksWrites(t *testing.T) {
	a, as, _ := newKefence()
	a.Mode = ModeLogRO
	buf, _ := a.Alloc(10)
	// Read past the end: logged, auto-mapped read-only, continues.
	if err := as.ReadBytes(buf+10, make([]byte, 4)); err != nil {
		t.Fatalf("RO mode blocked the read: %v", err)
	}
	if len(a.Reports()) == 0 {
		t.Fatal("read overflow not reported")
	}
	// Write past the end still dies.
	if err := as.WriteBytes(buf+10, []byte{1}); err == nil {
		t.Fatal("RO mode allowed the write")
	}
}

func TestModeLogRWAllowsBoth(t *testing.T) {
	a, as, _ := newKefence()
	a.Mode = ModeLogRW
	buf, _ := a.Alloc(10)
	if err := as.WriteBytes(buf+10, []byte{0xAB}); err != nil {
		t.Fatalf("RW mode blocked the write: %v", err)
	}
	var b [1]byte
	if err := as.ReadBytes(buf+10, b[:]); err != nil || b[0] != 0xAB {
		t.Fatalf("read back = %v, %v", b[0], err)
	}
	if len(a.Reports()) == 0 {
		t.Fatal("overflow not reported despite continuing")
	}
}

func TestFreeReleasesEverything(t *testing.T) {
	a, as, _ := newKefence()
	before := as.Phys().InUse()
	buf, _ := a.Alloc(100)
	if err := a.Free(buf); err != nil {
		t.Fatal(err)
	}
	if as.Phys().InUse() != before {
		t.Fatalf("leaked frames: %d -> %d", before, as.Phys().InUse())
	}
	if a.TableLen() != 0 {
		t.Fatalf("hash table retains %d entries", a.TableLen())
	}
	if err := a.Free(buf); !errors.Is(err, alloc.ErrBadFree) {
		t.Fatalf("double free = %v", err)
	}
}

func TestFreeAfterAutoMap(t *testing.T) {
	a, as, _ := newKefence()
	a.Mode = ModeLogRW
	before := as.Phys().InUse()
	buf, _ := a.Alloc(10)
	_ = as.WriteBytes(buf+10, []byte{1}) // auto-maps the guard
	if err := a.Free(buf); err != nil {
		t.Fatal(err)
	}
	if as.Phys().InUse() != before {
		t.Fatal("auto-mapped guard page leaked")
	}
}

func TestStatsForPaperMetrics(t *testing.T) {
	a, _, _ := newKefence()
	var bufs []mem.Addr
	for i := 0; i < 50; i++ {
		b, _ := a.Alloc(80)
		bufs = append(bufs, b)
	}
	s := a.Stats()
	if s.MeanAllocSize() != 80 {
		t.Fatalf("mean = %v", s.MeanAllocSize())
	}
	// Each 80-byte allocation holds a data page + a guard page.
	if s.LivePages != 100 {
		t.Fatalf("live pages = %d", s.LivePages)
	}
	for _, b := range bufs {
		_ = a.Free(b)
	}
	if a.Stats().Live != 0 || a.Stats().LivePages != 0 {
		t.Fatalf("stats after free: %+v", a.Stats())
	}
	if a.Stats().MaxLivePages != 100 {
		t.Fatalf("max pages = %d", a.Stats().MaxLivePages)
	}
}

func TestSizeOf(t *testing.T) {
	a, _, _ := newKefence()
	buf, _ := a.Alloc(123)
	if sz, ok := a.SizeOf(buf); !ok || sz != 123 {
		t.Fatalf("SizeOf = %d,%v", sz, ok)
	}
	if _, ok := a.SizeOf(buf + 1); ok {
		t.Fatal("interior pointer accepted by SizeOf")
	}
}

func TestMultiPageAllocation(t *testing.T) {
	a, as, _ := newKefence()
	size := 3*mem.PageSize + 100
	buf, err := a.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if err := as.WriteBytes(buf, data); err != nil {
		t.Fatalf("full-buffer write: %v", err)
	}
	if err := as.WriteBytes(buf+mem.Addr(size), []byte{1}); err == nil {
		t.Fatal("overflow after multi-page buffer not caught")
	}
	if err := a.Free(buf); err != nil {
		t.Fatal(err)
	}
}

func TestChainedFaultHandler(t *testing.T) {
	// Faults not belonging to Kefence go to the previous handler.
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("kernel", mem.NewPhys(64<<20), &costs)
	var prevCalled bool
	as.Handler = func(space *mem.AddressSpace, f *mem.Fault) mem.FaultAction {
		prevCalled = true
		return mem.FaultKill
	}
	New(as, &costs, nil, nil)
	if err := as.ReadBytes(0xABC000, make([]byte, 1)); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	if !prevCalled {
		t.Fatal("previous handler not chained")
	}
}

func TestHtabBasics(t *testing.T) {
	h := newHtab()
	recs := make([]*allocation, 200)
	for i := range recs {
		recs[i] = &allocation{size: i}
		h.put(uint64(i*4096), recs[i])
	}
	if h.len() != 200 {
		t.Fatalf("len = %d", h.len())
	}
	for i := range recs {
		got, ok := h.get(uint64(i * 4096))
		if !ok || got != recs[i] {
			t.Fatalf("get(%d) = %v,%v", i, got, ok)
		}
	}
	if _, ok := h.get(999999); ok {
		t.Fatal("phantom key")
	}
	for i := 0; i < 100; i++ {
		if !h.del(uint64(i * 4096)) {
			t.Fatalf("del %d failed", i)
		}
	}
	if h.del(0) {
		t.Fatal("double delete succeeded")
	}
	if h.len() != 100 {
		t.Fatalf("len after deletes = %d", h.len())
	}
	// Tombstones must not break later probes.
	for i := 100; i < 200; i++ {
		if _, ok := h.get(uint64(i * 4096)); !ok {
			t.Fatalf("key %d lost after deletions", i)
		}
	}
}

func TestHtabAgainstMapModel(t *testing.T) {
	prop := func(ops []uint16) bool {
		h := newHtab()
		model := map[uint64]*allocation{}
		rec := &allocation{}
		for _, o := range ops {
			k := uint64(o % 128)
			switch o % 3 {
			case 0:
				h.put(k, rec)
				model[k] = rec
			case 1:
				got := h.del(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			case 2:
				_, got := h.get(k)
				_, want := model[k]
				if got != want {
					return false
				}
			}
			if h.len() != len(model) {
				return false
			}
		}
		return true
	}
	// Op 27 puts key 122, op 28 deletes key 31 and leaves a tombstone
	// ahead of it on 122's probe chain, and op 30 puts 122 again: put
	// must update the entry past the tombstone, not store a second one.
	regress := []uint16{0x7bbb, 0x9854, 0x860c, 0x5a76, 0x9682, 0x51fe, 0x9294, 0xc7e, 0x45ef, 0x6474, 0xd353, 0x7f36, 0xc908, 0x6298, 0x9cde, 0x3c4f, 0xfd16, 0x8c9a, 0x3fa1, 0x909b, 0x4b95, 0xae09, 0xddce, 0x9384, 0xaa1f, 0xdd12, 0x1188, 0x7dfa, 0x5a1f, 0x1bd5, 0x317a}
	if !prop(regress) {
		t.Fatalf("failed on %#v", regress)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVmallocStyleCosts(t *testing.T) {
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("kernel", mem.NewPhys(64<<20), &costs)
	var charged sim.Cycles
	a := New(as, &costs, func(c sim.Cycles) { charged += c }, nil)
	buf, _ := a.Alloc(80)
	if charged < costs.Vmalloc {
		t.Fatalf("alloc charged %d < vmalloc cost %d", charged, costs.Vmalloc)
	}
	charged = 0
	_ = a.Free(buf)
	if charged < costs.Vfree {
		t.Fatalf("free charged %d < vfree cost %d", charged, costs.Vfree)
	}
}

func TestManyAllocationsProperty(t *testing.T) {
	a, as, _ := newKefence()
	if err := quick.Check(func(sizes []uint16) bool {
		var bufs []mem.Addr
		var szs []int
		for _, s := range sizes {
			size := int(s%8000) + 1
			b, err := a.Alloc(size)
			if err != nil {
				return false
			}
			// Last in-bounds byte writable.
			if err := as.WriteBytes(b+mem.Addr(size-1), []byte{1}); err != nil {
				return false
			}
			bufs = append(bufs, b)
			szs = append(szs, size)
		}
		// First out-of-bounds byte faults for every live buffer.
		for i, b := range bufs {
			if err := as.WriteBytes(b+mem.Addr(szs[i]), []byte{1}); err == nil {
				return false
			}
		}
		for _, b := range bufs {
			if err := a.Free(b); err != nil {
				return false
			}
		}
		return a.Stats().Live == 0
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeCrash: "crash", ModeLogRO: "log-readonly", ModeLogRW: "log-readwrite", Mode(9): "?"} {
		if m.String() != want {
			t.Fatalf("%d = %q", m, m.String())
		}
	}
}

var _ = fmt.Sprintf
