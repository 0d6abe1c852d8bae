package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/kgcc"
	"repro/internal/sys"
)

// TestPostMarkRingMatchesClassic is the submitter equivalence gate:
// trap, Cosy and ring submitters replay the identical RNG-driven
// transaction mix, so their PostMarkStats must be identical, while
// the batched ring spends far fewer boundary crossings.
func TestPostMarkRingMatchesClassic(t *testing.T) {
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 40, 150

	run := func(fn func(s *core.System, pr *sys.Proc) (PostMarkStats, error)) (PostMarkStats, int64) {
		s := newSys(t, core.Options{})
		var st PostMarkStats
		s.Spawn("pm", func(pr *sys.Proc) error {
			var err error
			st, err = fn(s, pr)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st, s.K.TotalCalls()
	}
	cst, ccalls := run(func(_ *core.System, pr *sys.Proc) (PostMarkStats, error) {
		return PostMark(pr, cfg)
	})
	if cst.Read == 0 || cst.Appended == 0 || cst.Created == 0 || cst.Deleted == 0 || cst.BytesRead == 0 {
		t.Fatalf("trap run exercised too little: %+v", cst)
	}

	cases := []struct {
		name  string
		batch int // ring batch; 0 for Cosy
	}{{"cosy", 0}, {"ring1", 1}, {"ring64", 64}, {"ring512", 512}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, calls := run(func(s *core.System, pr *sys.Proc) (PostMarkStats, error) {
				if tc.batch == 0 {
					return PostMarkCosy(pr, s.CosyEngine(kext.ModeDataSeg), cfg)
				}
				return PostMarkRing(pr, cfg, tc.batch)
			})
			if st != cst {
				t.Errorf("stats diverge: trap %+v, %s %+v", cst, tc.name, st)
			}
			if tc.batch >= 64 && calls*10 > ccalls {
				t.Errorf("%d crossings vs trap %d: want >=10x reduction", calls, ccalls)
			}
		})
	}
}

// TestSeqScanRingVariants checks both batched-read and anycall-pumped
// scans read the exact table the classic loop reads.
func TestSeqScanRingVariants(t *testing.T) {
	cfg := DefaultDB()
	cfg.Records = 500

	scan := func(fn func(pr *sys.Proc) (int64, error)) (int64, int64) {
		s := newSys(t, core.Options{})
		var total int64
		s.Spawn("scan", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			var err error
			total, err = fn(pr)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return total, s.K.TotalCalls()
	}

	want := dbSize(cfg)
	classicTotal, classicCalls := scan(func(pr *sys.Proc) (int64, error) {
		return SeqScanUser(pr, cfg)
	})
	if classicTotal != want {
		t.Fatalf("classic scan read %d of %d bytes", classicTotal, want)
	}

	ringTotal, ringCalls := scan(func(pr *sys.Proc) (int64, error) {
		return SeqScanRing(pr, cfg, 64)
	})
	if ringTotal != want {
		t.Errorf("ring scan read %d of %d bytes", ringTotal, want)
	}
	if ringCalls >= classicCalls {
		t.Errorf("ring scan crossings %d not below classic %d", ringCalls, classicCalls)
	}

	anyTotal, anyCalls := scan(func(pr *sys.Proc) (int64, error) {
		ext, err := pr.KuLoad(sys.KuSpec{Source: PumpSource, Entry: PumpEntry, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return 0, err
		}
		return SeqScanAnycall(pr, cfg, ext)
	})
	if anyTotal != want {
		t.Errorf("anycall scan read %d of %d bytes", anyTotal, want)
	}
	if anyCalls >= ringCalls {
		t.Errorf("anycall scan crossings %d not below batched ring's %d", anyCalls, ringCalls)
	}
}
