package sys

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

// env builds a machine with a memfs root and returns the syscall
// kernel.
func env() (*kernel.Machine, *Kernel) {
	m := kernel.New(kernel.Config{})
	fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1<<16))
	ns := vfs.NewNamespace(fs)
	return m, NewKernel(m, ns)
}

func run(t *testing.T, m *kernel.Machine, k *Kernel, fn func(pr *Proc) error) *kernel.Process {
	t.Helper()
	p := m.Spawn("test", func(p *kernel.Process) error {
		return fn(NewProc(k, p))
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpenWriteReadClose(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, err := pr.Creat("/hello.txt")
		if err != nil {
			return err
		}
		ub, err := pr.Mmap(64)
		if err != nil {
			return err
		}
		msg := []byte("syscalls cost cycles")
		if err := pr.Poke(ub, msg); err != nil {
			return err
		}
		ub.Len = len(msg)
		if n, err := pr.Write(fd, ub); err != nil || n != len(msg) {
			t.Errorf("write = %d,%v", n, err)
		}
		if err := pr.Close(fd); err != nil {
			return err
		}

		fd, err = pr.Open("/hello.txt", ORdonly)
		if err != nil {
			return err
		}
		rb, _ := pr.Mmap(64)
		n, err := pr.Read(fd, rb)
		if err != nil {
			return err
		}
		got, _ := pr.Peek(rb, n)
		if !bytes.Equal(got, msg) {
			t.Errorf("read back %q", got)
		}
		return pr.Close(fd)
	})
}

func TestOpenMissing(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		if _, err := pr.Open("/ghost", ORdonly); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestBadFD(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		if _, err := pr.Read(42, UserBuf{}); !errors.Is(err, ErrBadFD) {
			t.Errorf("read err = %v", err)
		}
		if err := pr.Close(-1); !errors.Is(err, ErrBadFD) {
			t.Errorf("close err = %v", err)
		}
		return nil
	})
}

func TestFDReuseLowest(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		a, _ := pr.Creat("/a")
		b, _ := pr.Creat("/b")
		if a != 0 || b != 1 {
			t.Errorf("fds = %d,%d", a, b)
		}
		_ = pr.Close(a)
		c, _ := pr.Creat("/c")
		if c != 0 {
			t.Errorf("reused fd = %d", c)
		}
		if pr.OpenFDs() != 2 {
			t.Errorf("open fds = %d", pr.OpenFDs())
		}
		return nil
	})
}

func TestLseek(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		ub, _ := pr.Mmap(10)
		_ = pr.Poke(ub, []byte("0123456789"))
		_, _ = pr.Write(fd, ub)
		if off, err := pr.Lseek(fd, 2, SeekSet); err != nil || off != 2 {
			t.Errorf("seek set = %d,%v", off, err)
		}
		rb, _ := pr.Mmap(3)
		n, _ := pr.Read(fd, rb)
		got, _ := pr.Peek(rb, n)
		if string(got) != "234" {
			t.Errorf("after seek read %q", got)
		}
		if off, _ := pr.Lseek(fd, -1, SeekEnd); off != 9 {
			t.Errorf("seek end = %d", off)
		}
		if off, _ := pr.Lseek(fd, 1, SeekCur); off != 10 {
			t.Errorf("seek cur = %d", off)
		}
		if _, err := pr.Lseek(fd, 0, 99); !errors.Is(err, vfs.ErrInval) {
			t.Errorf("bad whence = %v", err)
		}
		return nil
	})
}

func TestStatAndFstat(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		ub, _ := pr.Mmap(100)
		_, _ = pr.Write(fd, ub)
		a, err := pr.Stat("/f")
		if err != nil || a.Size != 100 {
			t.Errorf("stat = %+v, %v", a, err)
		}
		fa, err := pr.Fstat(fd)
		if err != nil || fa.ID != a.ID {
			t.Errorf("fstat = %+v, %v", fa, err)
		}
		return nil
	})
}

func TestDirectoryCalls(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		if err := pr.Mkdir("/d"); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			fd, err := pr.Creat(fmt.Sprintf("/d/f%d", i))
			if err != nil {
				return err
			}
			_ = pr.Close(fd)
		}
		fd, err := pr.Open("/d", ORdonly)
		if err != nil {
			return err
		}
		ents, err := pr.Getdents(fd)
		if err != nil || len(ents) != 5 {
			t.Errorf("getdents = %d,%v", len(ents), err)
		}
		_ = pr.Close(fd)
		if err := pr.Unlink("/d/f0"); err != nil {
			return err
		}
		if _, err := pr.Stat("/d/f0"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("stat after unlink = %v", err)
		}
		if err := pr.Rmdir("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
			t.Errorf("rmdir non-empty = %v", err)
		}
		for i := 1; i < 5; i++ {
			_ = pr.Unlink(fmt.Sprintf("/d/f%d", i))
		}
		return pr.Rmdir("/d")
	})
}

func TestRenameInvalidatesDcache(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/old")
		_ = pr.Close(fd)
		if _, err := pr.Stat("/old"); err != nil {
			return err
		}
		if err := pr.Rename("/old", "/new"); err != nil {
			return err
		}
		if _, err := pr.Stat("/old"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("old after rename = %v", err)
		}
		if _, err := pr.Stat("/new"); err != nil {
			t.Errorf("new after rename = %v", err)
		}
		return nil
	})
}

func TestSyscallChargesTrapAndDispatch(t *testing.T) {
	m, k := env()
	p := run(t, m, k, func(pr *Proc) error {
		pr.Getpid()
		return nil
	})
	u, s, _ := p.Times()
	if u != m.Costs.UserDispatch {
		t.Fatalf("user = %d, want %d", u, m.Costs.UserDispatch)
	}
	if s != m.Costs.Trap {
		t.Fatalf("sys = %d, want %d", s, m.Costs.Trap)
	}
}

func TestReadChargesCopyout(t *testing.T) {
	m, k := env()
	var small, large sim.Cycles
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		big, _ := pr.Mmap(8192)
		_, _ = pr.Write(fd, big)
		_, _ = pr.Lseek(fd, 0, SeekSet)

		_, sys0, _ := pr.P.Times()
		sb := UserBuf{Addr: big.Addr, Len: 64}
		_, _ = pr.Read(fd, sb)
		_, sys1, _ := pr.P.Times()
		small = sys1 - sys0
		_, _ = pr.Lseek(fd, 0, SeekSet)
		_, _ = pr.Read(fd, big)
		_, sys2, _ := pr.P.Times()
		large = sys2 - sys1
		return nil
	})
	if large <= small {
		t.Fatalf("8K read (%d) not costlier than 64B read (%d)", large, small)
	}
	if diff := large - small; diff < sim.Cycles(8000)*m.Costs.CopyUserByte {
		t.Fatalf("copy cost delta = %d, want at least %d", diff, 8000*int(m.Costs.CopyUserByte))
	}
}

func TestReaddirPlusMatchesReaddirStat(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		_ = pr.Mkdir("/d")
		for i := 0; i < 20; i++ {
			fd, _ := pr.Creat(fmt.Sprintf("/d/f%02d", i))
			ub, _ := pr.Mmap(i + 1)
			_, _ = pr.Write(fd, ub)
			_ = pr.Close(fd)
		}
		// The old way.
		fd, _ := pr.Open("/d", ORdonly)
		ents, err := pr.Getdents(fd)
		if err != nil {
			return err
		}
		_ = pr.Close(fd)
		oldWay := map[string]int64{}
		for _, e := range ents {
			a, err := pr.Stat("/d/" + e.Name)
			if err != nil {
				return err
			}
			oldWay[e.Name] = a.Size
		}
		// The new way.
		plus, err := pr.ReaddirPlus("/d")
		if err != nil {
			return err
		}
		if len(plus) != len(oldWay) {
			t.Errorf("readdirplus = %d entries, want %d", len(plus), len(oldWay))
		}
		for _, na := range plus {
			if oldWay[na.Name] != na.Attr.Size {
				t.Errorf("%s: size %d != %d", na.Name, na.Attr.Size, oldWay[na.Name])
			}
		}
		return nil
	})
}

func TestReaddirPlusFasterAndFewerCalls(t *testing.T) {
	// The core of experiment E1, at small scale: same result, far
	// fewer crossings, less total time.
	const nfiles = 100
	setup := func(pr *Proc) error {
		_ = pr.Mkdir("/d")
		for i := 0; i < nfiles; i++ {
			fd, err := pr.Creat(fmt.Sprintf("/d/file%03d", i))
			if err != nil {
				return err
			}
			_ = pr.Close(fd)
		}
		return nil
	}

	mOld, kOld := env()
	var oldCalls int64
	pOld := run(t, mOld, kOld, func(pr *Proc) error {
		if err := setup(pr); err != nil {
			return err
		}
		start := kOld.TotalCalls()
		fd, _ := pr.Open("/d", ORdonly)
		ents, _ := pr.Getdents(fd)
		_ = pr.Close(fd)
		for _, e := range ents {
			if _, err := pr.Stat("/d/" + e.Name); err != nil {
				return err
			}
		}
		oldCalls = kOld.TotalCalls() - start
		return nil
	})

	mNew, kNew := env()
	var newCalls int64
	pNew := run(t, mNew, kNew, func(pr *Proc) error {
		if err := setup(pr); err != nil {
			return err
		}
		start := kNew.TotalCalls()
		if _, err := pr.ReaddirPlus("/d"); err != nil {
			return err
		}
		newCalls = kNew.TotalCalls() - start
		return nil
	})

	if newCalls != 1 {
		t.Fatalf("readdirplus used %d calls", newCalls)
	}
	if oldCalls != int64(nfiles)+3 {
		t.Fatalf("old way used %d calls", oldCalls)
	}
	uo, so, _ := pOld.Times()
	un, sn, _ := pNew.Times()
	if un >= uo || sn >= so {
		t.Fatalf("readdirplus not cheaper: user %d vs %d, sys %d vs %d", un, uo, sn, so)
	}
}

func TestOpenReadClose(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		ub, _ := pr.Mmap(32)
		_ = pr.Poke(ub, []byte("payload"))
		ub.Len = 7
		_, _ = pr.Write(fd, ub)
		_ = pr.Close(fd)

		before := k.TotalCalls()
		rb, _ := pr.Mmap(32)
		n, err := pr.OpenReadClose("/f", rb)
		if err != nil || n != 7 {
			t.Errorf("orc = %d,%v", n, err)
		}
		got, _ := pr.Peek(rb, n)
		if string(got) != "payload" {
			t.Errorf("got %q", got)
		}
		if k.TotalCalls()-before != 1 {
			t.Errorf("orc used %d calls", k.TotalCalls()-before)
		}
		if pr.OpenFDs() != 0 {
			t.Errorf("fd leaked")
		}
		return nil
	})
}

func TestOpenWriteClose(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		ub, _ := pr.Mmap(16)
		_ = pr.Poke(ub, []byte("written at once!"))
		if n, err := pr.OpenWriteClose("/new", ub); err != nil || n != 16 {
			t.Errorf("owc = %d,%v", n, err)
		}
		a, err := pr.Stat("/new")
		if err != nil || a.Size != 16 {
			t.Errorf("stat = %+v,%v", a, err)
		}
		return nil
	})
}

func TestOpenFstat(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		ub, _ := pr.Mmap(50)
		_, _ = pr.Write(fd, ub)
		_ = pr.Close(fd)

		fd2, a, err := pr.OpenFstat("/f")
		if err != nil || a.Size != 50 {
			t.Errorf("openfstat = %+v,%v", a, err)
		}
		return pr.Close(fd2)
	})
}

func TestOpenFstatMissingClosesNothing(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		if _, _, err := pr.OpenFstat("/ghost"); err == nil {
			t.Error("openfstat of missing succeeded")
		}
		if pr.OpenFDs() != 0 {
			t.Error("fd leaked on error path")
		}
		return nil
	})
}

type recHook struct {
	calls []Nr
	in    int
	out   int
}

func (h *recHook) tap(p *kernel.Process, nr Nr, in, out int, dur sim.Cycles) {
	h.calls = append(h.calls, nr)
	h.in += in
	h.out += out
}

func TestHookObservesCalls(t *testing.T) {
	m, k := env()
	h := &recHook{}
	k.AddExitTap(h.tap)
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		_ = pr.Close(fd)
		_, _ = pr.Stat("/f")
		return nil
	})
	want := []Nr{NrCreat, NrClose, NrStat}
	if fmt.Sprint(h.calls) != fmt.Sprint(want) {
		t.Fatalf("hook saw %v, want %v", h.calls, want)
	}
	if h.out != vfs.StatSize {
		t.Fatalf("hook out bytes = %d", h.out)
	}
}

func TestNrNames(t *testing.T) {
	if NrOpen.String() != "open" || NrReaddirPlus.String() != "readdirplus" {
		t.Fatal("names")
	}
	if NrCosy.String() != "cosy" {
		t.Fatal("cosy name")
	}
	if Nr(200).String() != "sys_?" {
		t.Fatal("unknown nr")
	}
}

func TestTruncateOnOpen(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		fd, _ := pr.Creat("/f")
		ub, _ := pr.Mmap(10)
		_, _ = pr.Write(fd, ub)
		_ = pr.Close(fd)
		fd2, err := pr.Open("/f", OWronly|OTrunc)
		if err != nil {
			return err
		}
		_ = pr.Close(fd2)
		a, _ := pr.Stat("/f")
		if a.Size != 0 {
			t.Errorf("size after O_TRUNC = %d", a.Size)
		}
		return nil
	})
}
