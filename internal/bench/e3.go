package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// E3 reproduces §2.3's micro-benchmarks: "individual system calls are
// sped up by 40-90% for common CPU-bound user applications" when run
// as compounds.
func E3(perf bool) (*Table, error) {
	t := &Table{ID: "E3", Title: "Cosy micro-benchmarks (per-sequence speedup)"}
	micro := []struct {
		name  string
		iters int
		plain func(pr *sys.Proc, iters int) error
		comp  func(iters int) ([]byte, int, error) // encoded compound + shm size
	}{
		{name: "open-read-close x200", iters: 200, plain: plainORC, comp: compORC},
		{name: "4KB read loop (256KB file)", iters: 64, plain: plainReadLoop, comp: compReadLoop},
		{name: "lseek+read x300", iters: 300, plain: plainSeekRead, comp: compSeekRead},
		{name: "stat x500", iters: 500, plain: plainStat, comp: compStat},
		{name: "creat-write-close x100", iters: 100, plain: plainCWC, comp: compCWC},
	}
	var lo, hi float64 = 2, -1
	for _, m := range micro {
		base, baseSys, err := RunPhase(perfOpts(core.Options{}, perf), nil, microSetup,
			func(pr *sys.Proc) error { return m.plain(pr, m.iters) })
		if err != nil {
			return nil, fmt.Errorf("%s (plain): %w", m.name, err)
		}
		raw, shmSize, err := m.comp(m.iters)
		if err != nil {
			return nil, fmt.Errorf("%s (compile): %w", m.name, err)
		}
		var e *kext.Engine
		cosyPh, cosySys, err := RunPhase(perfOpts(core.Options{}, perf),
			func(s *core.System) { e = s.CosyEngine(kext.ModeDataSeg) },
			microSetup,
			func(pr *sys.Proc) error {
				shm, err := e.NewShm(shmSize)
				if err != nil {
					return err
				}
				_, err = e.ExecRing(pr, raw, shm)
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("%s (cosy): %w", m.name, err)
		}
		t.Observe(base)
		t.Observe(cosyPh)
		t.ObservePerf(baseSys)
		t.ObservePerf(cosySys)
		sp := improvement(base.CPU(), cosyPh.CPU())
		lo, hi = minf(lo, sp), maxf(hi, sp)
		t.Add(m.name, "40-90%", pct(sp), inBand(sp, 0.35, 0.95))
	}
	t.Add("speedup range", "40-90%", fmt.Sprintf("%s-%s", pct(lo), pct(hi)),
		inBand(lo, 0.35, 0.95) && inBand(hi, 0.35, 0.95))
	return t, nil
}

// microSetup creates the files the sequences touch.
func microSetup(pr *sys.Proc) error {
	small, err := pr.Mmap(4096)
	if err != nil {
		return err
	}
	fd, err := pr.Creat("/small.dat")
	if err != nil {
		return err
	}
	if _, err := pr.Write(fd, small); err != nil {
		return err
	}
	if err := pr.Close(fd); err != nil {
		return err
	}
	big, err := pr.Mmap(256 << 10)
	if err != nil {
		return err
	}
	fd, err = pr.Creat("/big.dat")
	if err != nil {
		return err
	}
	if _, err := pr.Write(fd, big); err != nil {
		return err
	}
	return pr.Close(fd)
}

func plainORC(pr *sys.Proc, iters int) error {
	buf, err := pr.Mmap(4096)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		fd, err := pr.Open("/small.dat", sys.ORdonly)
		if err != nil {
			return err
		}
		if _, err := pr.Read(fd, buf); err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

func compORC(iters int) ([]byte, int, error) {
	b := lib.New()
	path := b.Const(int64(b.String("/small.dat")))
	bufOff := b.Const(int64(b.Alloc(4096)))
	size := b.Const(4096)
	total := b.Const(0)
	b.CountedLoop(int64(iters), func(i lang.Reg) {
		fd := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
		n := b.Sys(uint16(sys.NrRead), fd, bufOff, size)
		b.Sys(uint16(sys.NrClose), fd)
		b.BinInto(total, "+", total, n)
	})
	return finish(b, total)
}

func plainReadLoop(pr *sys.Proc, iters int) error {
	buf, err := pr.Mmap(4096)
	if err != nil {
		return err
	}
	fd, err := pr.Open("/big.dat", sys.ORdonly)
	if err != nil {
		return err
	}
	for {
		n, err := pr.Read(fd, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	return pr.Close(fd)
}

func compReadLoop(iters int) ([]byte, int, error) {
	b := lib.New()
	path := b.Const(int64(b.String("/big.dat")))
	bufOff := b.Const(int64(b.Alloc(4096)))
	size := b.Const(4096)
	fd := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
	total := b.Const(0)
	top := b.Here()
	n := b.Sys(uint16(sys.NrRead), fd, bufOff, size)
	exit := b.Brz(n)
	b.BinInto(total, "+", total, n)
	b.JmpTo(top)
	exit.Here()
	b.Sys(uint16(sys.NrClose), fd)
	return finish(b, total)
}

func plainSeekRead(pr *sys.Proc, iters int) error {
	buf, err := pr.Mmap(512)
	if err != nil {
		return err
	}
	fd, err := pr.Open("/big.dat", sys.ORdonly)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		off := int64(i*37%500) * 512
		if _, err := pr.Lseek(fd, off, sys.SeekSet); err != nil {
			return err
		}
		if _, err := pr.Read(fd, buf); err != nil {
			return err
		}
	}
	return pr.Close(fd)
}

func compSeekRead(iters int) ([]byte, int, error) {
	b := lib.New()
	path := b.Const(int64(b.String("/big.dat")))
	bufOff := b.Const(int64(b.Alloc(512)))
	size := b.Const(512)
	fd := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
	total := b.Const(0)
	c37, c500, c512 := b.Const(37), b.Const(500), b.Const(512)
	b.CountedLoop(int64(iters), func(i lang.Reg) {
		m := b.Bin("*", i, c37)
		m2 := b.Bin("%", m, c500)
		off := b.Bin("*", m2, c512)
		b.Sys(uint16(sys.NrLseek), fd, off, b.Const(int64(sys.SeekSet)))
		n := b.Sys(uint16(sys.NrRead), fd, bufOff, size)
		b.BinInto(total, "+", total, n)
	})
	b.Sys(uint16(sys.NrClose), fd)
	return finish(b, total)
}

func plainStat(pr *sys.Proc, iters int) error {
	for i := 0; i < iters; i++ {
		if _, err := pr.Stat("/small.dat"); err != nil {
			return err
		}
	}
	return nil
}

func compStat(iters int) ([]byte, int, error) {
	b := lib.New()
	path := b.Const(int64(b.String("/small.dat")))
	statOff := b.Const(int64(b.Alloc(vfs.StatSize)))
	ok := b.Const(0)
	b.CountedLoop(int64(iters), func(i lang.Reg) {
		r := b.Sys(uint16(sys.NrStat), path, statOff)
		b.BinInto(ok, "+", ok, r)
	})
	return finish(b, ok)
}

func plainCWC(pr *sys.Proc, iters int) error {
	buf, err := pr.Mmap(1024)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		fd, err := pr.Creat("/out.tmp")
		if err != nil {
			return err
		}
		if _, err := pr.Write(fd, buf); err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

func compCWC(iters int) ([]byte, int, error) {
	b := lib.New()
	path := b.Const(int64(b.String("/out.tmp")))
	bufOff := b.Const(int64(b.Alloc(1024)))
	size := b.Const(1024)
	total := b.Const(0)
	b.CountedLoop(int64(iters), func(i lang.Reg) {
		fd := b.Sys(uint16(sys.NrCreat), path)
		n := b.Sys(uint16(sys.NrWrite), fd, bufOff, size)
		b.Sys(uint16(sys.NrClose), fd)
		b.BinInto(total, "+", total, n)
	})
	return finish(b, total)
}

// finish seals a builder and returns the encoded bytes plus shm size.
func finish(b *lib.Builder, result lang.Reg) ([]byte, int, error) {
	c, err := b.End(result)
	if err != nil {
		return nil, 0, err
	}
	return lang.Encode(c), c.ShmSize, nil
}
