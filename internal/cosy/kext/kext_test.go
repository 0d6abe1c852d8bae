package kext

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cosy/cc"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/seg"
	"repro/internal/sys"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

func env() (*kernel.Machine, *sys.Kernel) {
	m := kernel.New(kernel.Config{})
	fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1<<16))
	ns := vfs.NewNamespace(fs)
	return m, sys.NewKernel(m, ns)
}

func run(t *testing.T, m *kernel.Machine, fn func(p *kernel.Process) error) error {
	t.Helper()
	m.Spawn("test", fn)
	return m.Run()
}

func TestComputeOnlyCompound(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	a := b.Const(40)
	c := b.Const(2)
	sum := b.Bin("+", a, c)
	buf, err := b.Build(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := e.NewShm(64)
		if err != nil {
			return err
		}
		got, err = e.ExecRing(pr, buf, shm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if e.Stats.Compounds != 1 || e.Stats.Ops == 0 {
		t.Fatalf("stats = %+v", e.Stats)
	}
}

func TestCompoundLoop(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	sum := b.Const(0)
	b.CountedLoop(100, func(i lang.Reg) {
		b.BinInto(sum, "+", sum, i)
	})
	buf, err := b.Build(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		var e2 error
		got, e2 = e.ExecRing(pr, buf, shm)
		return e2
	})
	if err != nil || got != 4950 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestCompoundSyscallsOpenWriteReadClose(t *testing.T) {
	// The canonical Cosy flow: create a file, write shared-buffer
	// data, reopen, read it back — one boundary crossing.
	m, k := env()
	e := New(k, ModeDataSeg)

	b := lib.New()
	pathOff := b.String("/data.bin")
	payloadOff := b.Alloc(16)
	// Fill payload via stores.
	for i := 0; i < 8; i++ {
		addr := b.Const(int64(payloadOff + i))
		val := b.Const(int64('A' + i))
		b.Store(1, addr, val)
	}
	path := b.Const(int64(pathOff))
	fd := b.Sys(uint16(sys.NrCreat), path)
	n := b.Sys(uint16(sys.NrWrite), fd, b.Const(int64(payloadOff)), b.Const(8))
	b.Sys(uint16(sys.NrClose), fd)
	fd2 := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
	readOffV := b.Alloc(16)
	nr := b.Sys(uint16(sys.NrRead), fd2, b.Const(int64(readOffV)), b.Const(8))
	b.Sys(uint16(sys.NrClose), fd2)
	total := b.Bin("+", n, nr)
	buf, err := b.Build(total)
	if err != nil {
		t.Fatal(err)
	}

	var got int64
	var data []byte
	var calls int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := e.NewShm(256)
		if err != nil {
			return err
		}
		// Warm the engine's submission ring so the measurement below
		// sees the steady state, not the one-time ring_setup crossing.
		if _, err := e.Ring(pr, len(buf)); err != nil {
			return err
		}
		before := k.TotalCalls()
		got, err = e.ExecRing(pr, buf, shm)
		if err != nil {
			return err
		}
		calls = k.TotalCalls() - before
		data, err = shm.Read(readOffV, 8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("total bytes = %d", got)
	}
	if calls != 1 {
		t.Fatalf("boundary crossings = %d, want 1", calls)
	}
	if string(data) != "ABCDEFGH" {
		t.Fatalf("shm data = %q", data)
	}
	if e.Stats.Syscalls != 6 {
		t.Fatalf("in-kernel syscalls = %d", e.Stats.Syscalls)
	}
}

func TestCompiledRegionEndToEnd(t *testing.T) {
	// Cosy-GCC path: marked C code to compound to execution.
	src := `
int bulk(void) {
	COSY_START;
	char buf[64];
	int fd = sys_creat("/from-c.txt");
	buf[0] = 'h'; buf[1] = 'i'; buf[2] = '!';
	int n = sys_write(fd, buf, 3);
	sys_close(fd);
	cosy_return(n);
	COSY_END;
	return 0;
}`
	comp, err := cc.CompileMarked(src, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := e.NewShm(comp.ShmSize)
		if err != nil {
			return err
		}
		got, err = e.ExecRing(pr, lang.Encode(comp), shm)
		if err != nil {
			return err
		}
		// Verify through the normal syscall interface.
		ub, _ := pr.Mmap(16)
		n, err := pr.OpenReadClose("/from-c.txt", ub)
		if err != nil {
			return err
		}
		data, _ := pr.Peek(ub, n)
		if string(data) != "hi!" {
			t.Errorf("file contents %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("compound returned %d", got)
	}
}

func TestCompiledRegionWithLoopAndDependency(t *testing.T) {
	// A read loop where the fd (output of sys_open) feeds sys_read:
	// the dependency-resolution behaviour of Cosy-GCC.
	src := `
int scan(void) {
	COSY_START;
	char buf[512];
	int fd = sys_open("/big.dat", 0);
	int total = 0;
	int n = 1;
	while (n > 0) {
		n = sys_read(fd, buf, 512);
		total += n;
	}
	sys_close(fd);
	cosy_return(total);
	COSY_END;
	return 0;
}`
	comp, err := cc.CompileMarked(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		// Create a 2000-byte file first.
		fd, err := pr.Creat("/big.dat")
		if err != nil {
			return err
		}
		ub, _ := pr.Mmap(2000)
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		_ = pr.Close(fd)

		shm, err := e.NewShm(comp.ShmSize)
		if err != nil {
			return err
		}
		got, err = e.ExecRing(pr, lang.Encode(comp), shm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2000 {
		t.Fatalf("total = %d", got)
	}
}

func TestWatchdogKillsInfiniteLoop(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	e.MaxKernel = m.Costs.TimeSlice * 3 // keep the test fast
	b := lib.New()
	top := b.Here()
	b.JmpTo(top) // while(1);
	buf, err := b.Build(b.Const(0))
	if err != nil {
		t.Fatal(err)
	}
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		_, err := e.ExecRing(pr, buf, shm)
		return err
	})
	if !errors.Is(err, kernel.ErrKilled) {
		t.Fatalf("err = %v, want process killed", err)
	}
	if e.Stats.Kills != 1 {
		t.Fatalf("kills = %d", e.Stats.Kills)
	}
}

func TestSegmentationBlocksOutOfBoundsAccess(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	addr := b.Const(100000) // far outside the shm segment
	val := b.Const(1)
	b.Store(8, addr, val)
	buf, err := b.Build(val)
	if err != nil {
		t.Fatal(err)
	}
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		_, err := e.ExecRing(pr, buf, shm)
		var pf *seg.ProtFault
		if !errors.As(err, &pf) {
			t.Errorf("err = %v, want protection fault", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Faults == 0 {
		t.Fatal("no fault counted")
	}
}

func TestSegmentationBlocksOOBRead(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	addr := b.Const(-8)
	v := b.Load(8, addr)
	buf, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		if _, err := e.ExecRing(pr, buf, shm); err == nil {
			t.Error("negative-offset load succeeded")
		}
		return nil
	})
}

func TestSyscallBufferBoundsChecked(t *testing.T) {
	// A read told to place 4096 bytes at the end of a small shm must
	// fault, not scribble.
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	pathOff := b.String("/x")
	fd := b.Sys(uint16(sys.NrCreat), b.Const(int64(pathOff)))
	n := b.Sys(uint16(sys.NrRead), fd, b.Const(60), b.Const(4096))
	buf, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		if _, err := e.ExecRing(pr, buf, shm); err == nil {
			t.Error("oversized read into shm succeeded")
		}
		return nil
	})
}

func TestIsolatedModeChargesSegEntries(t *testing.T) {
	mkBuf := func() []byte {
		b := lib.New()
		pathOff := b.String("/seg.txt")
		path := b.Const(int64(pathOff))
		fd := b.Sys(uint16(sys.NrCreat), path)
		x := b.Const(5) // compute between syscalls: new segment entry
		y := b.Bin("+", x, x)
		b.Sys(uint16(sys.NrClose), fd)
		z := b.Bin("*", y, y)
		buf, err := b.Build(z)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	exec := func(mode Mode) (*Engine, int64) {
		m, k := env()
		e := New(k, mode)
		var sysCycles int64
		_ = run(t, m, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			shm, _ := e.NewShm(64)
			_, s0, _ := p.Times()
			if _, err := e.ExecRing(pr, mkBuf(), shm); err != nil {
				return err
			}
			_, s1, _ := p.Times()
			sysCycles = int64(s1 - s0)
			return nil
		})
		return e, sysCycles
	}
	eIso, isoCost := exec(ModeIsolated)
	eData, dataCost := exec(ModeDataSeg)
	if eIso.Stats.SegEntries < 2 {
		t.Fatalf("segment entries = %d", eIso.Stats.SegEntries)
	}
	if eData.Stats.SegEntries != 0 {
		t.Fatalf("data-seg mode charged %d entries", eData.Stats.SegEntries)
	}
	if isoCost <= dataCost {
		t.Fatalf("isolated mode not costlier: %d vs %d", isoCost, dataCost)
	}
}

func TestHandcraftedCompoundRejected(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		if _, err := e.ExecRing(pr, []byte{1, 2, 3, 4, 5}, shm); !errors.Is(err, ErrBadCompound) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestForbiddenSyscallRejected(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	r := b.Sys(uint16(sys.NrCosy)) // compounds may not nest
	buf, err := b.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(64)
		if _, err := e.ExecRing(pr, buf, shm); !errors.Is(err, ErrBadCompound) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestStatThroughCompound(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	pathOff := b.String("/stat-me")
	statOff := b.Alloc(vfs.StatSize)
	fd := b.Sys(uint16(sys.NrCreat), b.Const(int64(pathOff)))
	b.Sys(uint16(sys.NrClose), fd)
	r := b.Sys(uint16(sys.NrStat), b.Const(int64(pathOff)), b.Const(int64(statOff)))
	buf, err := b.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, _ := e.NewShm(256)
		if _, err := e.ExecRing(pr, buf, shm); err != nil {
			return err
		}
		raw, err := shm.Read(statOff, vfs.StatSize)
		if err != nil {
			return err
		}
		a := DecodeStat(raw)
		if a.Type != vfs.TypeReg || a.Nlink != 1 {
			t.Errorf("decoded attr = %+v", a)
		}
		return nil
	})
}

func TestCosyFasterThanSyscallLoop(t *testing.T) {
	// The headline claim at micro scale: a read loop as a compound
	// beats the same loop through the syscall interface.
	const fileSize = 64 << 10
	const chunk = 4096

	setup := func(pr *sys.Proc) error {
		fd, err := pr.Creat("/bench.dat")
		if err != nil {
			return err
		}
		ub, err := pr.Mmap(fileSize)
		if err != nil {
			return err
		}
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		return pr.Close(fd)
	}

	// Plain syscall loop.
	m1, k1 := env()
	var plain int64
	m1.Spawn("plain", func(p *kernel.Process) error {
		pr := sys.NewProc(k1, p)
		if err := setup(pr); err != nil {
			return err
		}
		u0, s0, _ := p.Times()
		fd, _ := pr.Open("/bench.dat", 0)
		ub, _ := pr.Mmap(chunk)
		for {
			n, err := pr.Read(fd, ub)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
		_ = pr.Close(fd)
		u1, s1, _ := p.Times()
		plain = int64(u1 - u0 + s1 - s0)
		return nil
	})
	if err := m1.Run(); err != nil {
		t.Fatal(err)
	}

	// Cosy compound.
	src := fmt.Sprintf(`
int scan(void) {
	COSY_START;
	char buf[%d];
	int fd = sys_open("/bench.dat", 0);
	int total = 0;
	int n = 1;
	while (n > 0) {
		n = sys_read(fd, buf, %d);
		total += n;
	}
	sys_close(fd);
	cosy_return(total);
	COSY_END;
	return 0;
}`, chunk, chunk)
	comp, err := cc.CompileMarked(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	m2, k2 := env()
	e := New(k2, ModeDataSeg)
	var cosyTime int64
	var total int64
	m2.Spawn("cosy", func(p *kernel.Process) error {
		pr := sys.NewProc(k2, p)
		if err := setup(pr); err != nil {
			return err
		}
		shm, err := e.NewShm(comp.ShmSize)
		if err != nil {
			return err
		}
		u0, s0, _ := p.Times()
		total, err = e.ExecRing(pr, lang.Encode(comp), shm)
		u1, s1, _ := p.Times()
		cosyTime = int64(u1 - u0 + s1 - s0)
		return err
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != fileSize {
		t.Fatalf("compound read %d bytes", total)
	}
	if cosyTime >= plain {
		t.Fatalf("cosy (%d cycles) not faster than syscall loop (%d cycles)", cosyTime, plain)
	}
	speedup := float64(plain-cosyTime) / float64(plain)
	t.Logf("cosy speedup: %.1f%%", speedup*100)
	if speedup < 0.2 {
		t.Fatalf("speedup only %.1f%%, paper reports 40-90%% for micro-benchmarks", speedup*100)
	}
}
