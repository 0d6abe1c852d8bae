package workload

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func newSys(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dbSize is the table's size in bytes: what a full sequential scan reads.
func dbSize(cfg DBConfig) int64 { return int64(cfg.Records) * int64(cfg.RecSize) }

func TestPostMarkRuns(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 50, 200
	var st PostMarkStats
	s.Spawn("postmark", func(pr *sys.Proc) error {
		var err error
		st, err = PostMark(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Created < cfg.InitialFiles || st.Read == 0 || st.Appended == 0 || st.Deleted == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Everything cleaned up.
	s2 := s
	_ = s2
	if st.Created != st.Deleted {
		t.Fatalf("created %d != deleted %d (cleanup phase)", st.Created, st.Deleted)
	}
}

func TestPostMarkDeterministic(t *testing.T) {
	run := func() PostMarkStats {
		s := newSys(t, core.Options{})
		cfg := DefaultPostMark()
		cfg.InitialFiles, cfg.Transactions = 30, 100
		var st PostMarkStats
		s.Spawn("pm", func(pr *sys.Proc) error {
			var err error
			st, err = PostMark(pr, cfg)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestPostMarkOnBtfs(t *testing.T) {
	s := newSys(t, core.Options{FS: core.FSBtfs})
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 30, 100
	s.Spawn("pm", func(pr *sys.Proc) error {
		_, err := PostMark(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Btfs.TotalMemOps == 0 {
		t.Fatal("btfs saw no module memory ops")
	}
}

func TestCompileWorkload(t *testing.T) {
	s := newSys(t, core.Options{Wrap: core.WrapKmalloc})
	cfg := DefaultCompile()
	cfg.Sources = 20
	var st CompileStats
	p := s.Spawn("make", func(pr *sys.Proc) error {
		if err := CompileSetup(pr, cfg); err != nil {
			return err
		}
		var err error
		st, err = Compile(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Compiled != cfg.Sources {
		t.Fatalf("compiled %d of %d", st.Compiled, cfg.Sources)
	}
	// Compiles are CPU-bound: nearly all time is on the CPU (user
	// compile work plus toolchain kernel time), not waiting on disk.
	u, sysT, w := p.Times()
	if w*3 > u+sysT {
		t.Fatalf("compile workload I/O-bound: wait %d vs cpu %d", w, u+sysT)
	}
	if u == 0 {
		t.Fatal("no user compile work recorded")
	}
	// wrapfs private data was allocated for the touched objects.
	if s.Wrap.PrivateAllocs == 0 || s.Wrap.NameAllocs == 0 {
		t.Fatalf("wrapfs allocations: private=%d name=%d", s.Wrap.PrivateAllocs, s.Wrap.NameAllocs)
	}
}

func TestInteractiveTraceShape(t *testing.T) {
	s := newSys(t, core.Options{})
	rec := s.EnableTrace()
	cfg := DefaultInteractive()
	cfg.Dirs, cfg.FilesPerDir, cfg.ListOps, cfg.ViewOps = 8, 16, 60, 30
	s.Spawn("user", func(pr *sys.Proc) error {
		if err := InteractiveSetup(pr, cfg); err != nil {
			return err
		}
		_, err := Interactive(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The dominant consolidation candidate must be getdents-stat.
	if rec.Calls(sys.NrStat) == 0 || rec.Calls(sys.NrGetdents) == 0 {
		t.Fatal("no readdir-stat traffic")
	}
	paths := rec.TopPatterns(uint64(cfg.ListOps/4), 5)
	found := false
	for _, p := range paths {
		name := rec.Graph.Name(p)
		if strings.Contains(name, "getdents") && strings.Contains(name, "stat") {
			found = true
		}
	}
	if !found {
		names := make([]string, len(paths))
		for i, p := range paths {
			names[i] = rec.Graph.Name(p)
		}
		t.Fatalf("expected a getdents..stat pattern; mined %v", names)
	}
}

func TestInteractivePlusEquivalent(t *testing.T) {
	cfg := DefaultInteractive()
	cfg.Dirs, cfg.FilesPerDir, cfg.ListOps, cfg.ViewOps = 6, 12, 40, 20

	run := func(plus bool) (InteractiveStats, int64) {
		s := newSys(t, core.Options{})
		var st InteractiveStats
		p := s.Spawn("user", func(pr *sys.Proc) error {
			if err := InteractiveSetup(pr, cfg); err != nil {
				return err
			}
			var err error
			if plus {
				st, err = InteractivePlus(pr, cfg)
			} else {
				st, err = Interactive(pr, cfg)
			}
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		u, sy, _ := p.Times()
		return st, int64(u + sy)
	}
	oldSt, oldCost := run(false)
	newSt, newCost := run(true)
	if oldSt.StatCalls != newSt.StatCalls || oldSt.Lists != newSt.Lists {
		t.Fatalf("different work: %+v vs %+v", oldSt, newSt)
	}
	if newCost >= oldCost {
		t.Fatalf("readdirplus session not cheaper: %d vs %d", newCost, oldCost)
	}
}

func TestDirSweepBothWaysAgree(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultDirSweep(100)
	s.Spawn("sweep", func(pr *sys.Proc) error {
		if err := DirSweepSetup(pr, cfg); err != nil {
			return err
		}
		a, err := ReaddirStat(pr, cfg)
		if err != nil {
			return err
		}
		b, err := ReaddirPlusSweep(pr, cfg)
		if err != nil {
			return err
		}
		want := ExpectedSweepBytes(cfg)
		if a != want || b != want {
			t.Errorf("sweep totals %d/%d, want %d", a, b, want)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDBScansAgree(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultDB()
	cfg.Records, cfg.Lookups = 500, 100
	e := s.CosyEngine(kext.ModeDataSeg)
	s.Spawn("db", func(pr *sys.Proc) error {
		if err := DBSetup(pr, cfg); err != nil {
			return err
		}
		seqU, err := SeqScanUser(pr, cfg)
		if err != nil {
			return err
		}
		seqC, err := SeqScanCosy(pr, e, cfg)
		if err != nil {
			return err
		}
		if seqU != dbSize(cfg) || seqC != dbSize(cfg) {
			t.Errorf("seq scans: user=%d cosy=%d want %d", seqU, seqC, dbSize(cfg))
		}
		randU, err := RandScanUser(pr, cfg)
		if err != nil {
			return err
		}
		randC, err := RandScanCosy(pr, e, cfg)
		if err != nil {
			return err
		}
		// Lookups is not a multiple of RandBatch, so the batched scan
		// also runs a short tail batch.
		randB, err := RandScanCosyBatched(pr, e, cfg)
		if err != nil {
			return err
		}
		want := int64(cfg.Lookups * cfg.RecSize)
		if randU != want || randC != want || randB != randC {
			t.Errorf("rand scans: user=%d cosy=%d batched=%d want %d", randU, randC, randB, want)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCosyScansFaster(t *testing.T) {
	cfg := DefaultDB()
	cfg.Records, cfg.Lookups = 1000, 300

	measure := func(fn func(pr *sys.Proc, e *kext.Engine) error) int64 {
		s := newSys(t, core.Options{})
		e := s.CosyEngine(kext.ModeDataSeg)
		var cost int64
		p := s.Spawn("db", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			u0, s0, _ := pr.P.Times()
			if err := fn(pr, e); err != nil {
				return err
			}
			u1, s1, _ := pr.P.Times()
			cost = int64(u1 - u0 + s1 - s0)
			return nil
		})
		_ = p
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return cost
	}
	seqUser := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := SeqScanUser(pr, cfg)
		return err
	})
	seqCosy := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := SeqScanCosy(pr, e, cfg)
		return err
	})
	if seqCosy >= seqUser {
		t.Fatalf("cosy seq scan not faster: %d vs %d", seqCosy, seqUser)
	}
	randUser := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := RandScanUser(pr, cfg)
		return err
	})
	randCosy := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := RandScanCosy(pr, e, cfg)
		return err
	})
	if randCosy >= randUser {
		t.Fatalf("cosy rand scan not faster: %d vs %d", randCosy, randUser)
	}
}

func TestLoggerConsumesEvents(t *testing.T) {
	s := newSys(t, core.Options{})
	s.Mon.RingEnabled = true
	s.InstrumentDcache()
	var done atomic.Bool

	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 20, 60
	s.Spawn("postmark", func(pr *sys.Proc) error {
		_, err := PostMark(pr, cfg)
		done.Store(true)
		return err
	})

	lcfg := DefaultLogger()
	lcfg.WriteLog = true
	lcfg.LogPath = "/events.log"
	var lst LoggerStats
	s.Spawn("logger", func(pr *sys.Proc) error {
		var err error
		lst, err = Logger(pr, lcfg, done.Load)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lst.Events == 0 {
		t.Fatal("logger saw no events")
	}
	if lst.BytesLogged == 0 {
		t.Fatal("logger wrote nothing")
	}
	if s.Mon.Logged == 0 {
		t.Fatal("monitor logged nothing")
	}
}

func TestKefenceWrapfsCleanWorkload(t *testing.T) {
	s := newSys(t, core.Options{Wrap: core.WrapKefence})
	cfg := DefaultCompile()
	cfg.Sources = 10
	s.Spawn("make", func(pr *sys.Proc) error {
		if err := CompileSetup(pr, cfg); err != nil {
			return err
		}
		_, err := Compile(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Kef.Reports()) != 0 {
		t.Fatalf("kefence flagged clean module: %v", s.Kef.Reports()[0])
	}
	st := s.Kef.Stats()
	if st.TotalAllocs == 0 {
		t.Fatal("no guarded allocations happened")
	}
	if st.MeanAllocSize() > 120 {
		t.Fatalf("mean alloc %.0f bytes; paper reports ~80", st.MeanAllocSize())
	}
}

func TestWorkloadErrorsPropagate(t *testing.T) {
	s := newSys(t, core.Options{})
	s.Spawn("bad", func(pr *sys.Proc) error {
		cfg := DefaultDB()
		cfg.Path = "/no/such/dir/db"
		_, err := SeqScanUser(pr, cfg)
		if !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
