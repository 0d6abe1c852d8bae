package workload

import (
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/sim"
	"repro/internal/sys"
)

// DBConfig describes the database-style workload of the Cosy
// evaluation (§2.3): "we modified popular user applications that
// exhibit sequential or random access patterns (e.g., a database) to
// use Cosy."
type DBConfig struct {
	Path    string
	Records int
	RecSize int
	// Lookups is the number of random-scan probes.
	Lookups int
	// ProcessCPU is the per-record user CPU of the unmodified
	// application (predicate evaluation on the record).
	ProcessCPU sim.Cycles
	Seed       uint64
}

// DefaultDB sizes a small table.
func DefaultDB() DBConfig {
	return DBConfig{
		Path:       "/db.tbl",
		Records:    4000,
		RecSize:    256,
		Lookups:    1500,
		ProcessCPU: 300,
		Seed:       13,
	}
}

// DBSetup writes the table file.
func DBSetup(pr *sys.Proc, cfg DBConfig) error {
	fd, err := pr.Creat(cfg.Path)
	if err != nil {
		return err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return err
	}
	rec := make([]byte, cfg.RecSize)
	for r := 0; r < cfg.Records; r++ {
		for i := range rec {
			rec[i] = byte(r + i)
		}
		if err := pr.Poke(buf, rec); err != nil {
			return err
		}
		if _, err := pr.Write(fd, buf); err != nil {
			return err
		}
	}
	return pr.Close(fd)
}

// SeqBatch and RandBatch are the request-trace batching granularity:
// one traced request covers SeqBatch sequential records or RandBatch
// random lookups, so per-request latency is large enough to have an
// interesting critical path but fine enough to expose tail behavior.
const (
	SeqBatch  = 64
	RandBatch = 16
)

// SeqScanUser is the unmodified application: a read-per-record loop
// through the syscall interface. Every SeqBatch records form one
// traced request.
func SeqScanUser(pr *sys.Proc, cfg DBConfig) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return 0, err
	}
	var total int64
	reads, open := 0, false
	for {
		if !open {
			pr.K.Ktrace.BeginOp(pr.P.PID, OpSeqScanBatch)
			open = true
		}
		n, err := pr.Read(fd, buf)
		if err != nil {
			pr.K.Ktrace.EndOp(pr.P.PID)
			return 0, err
		}
		if n == 0 {
			pr.K.Ktrace.EndOp(pr.P.PID)
			break
		}
		pr.P.ChargeUser(cfg.ProcessCPU)
		total += int64(n)
		if reads++; reads%SeqBatch == 0 {
			pr.K.Ktrace.EndOp(pr.P.PID)
			open = false
		}
	}
	return total, pr.Close(fd)
}

// seqScanCompound builds the Cosy version of the sequential scan.
func seqScanCompound(cfg DBConfig) ([]byte, error) {
	b := lib.New()
	pathOff := b.String(cfg.Path)
	recOff := b.Alloc(cfg.RecSize)
	fd := b.Sys(uint16(sys.NrOpen), b.Const(int64(pathOff)), b.Const(0))
	total := b.Const(0)
	// The in-compound record processing: touch the record header the
	// way the predicate would.
	top := b.Here()
	n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(recOff)), b.Const(int64(cfg.RecSize)))
	exit := b.Brz(n)
	b.BinInto(total, "+", total, n)
	hdr := b.Load(8, b.Const(int64(recOff)))
	b.Bin("&", hdr, hdr) // predicate evaluation
	b.JmpTo(top)
	exit.Here()
	b.Sys(uint16(sys.NrClose), fd)
	return b.Build(total)
}

// SeqScanCosy runs the scan as a compound on the engine.
func SeqScanCosy(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	raw, err := seqScanCompound(cfg)
	if err != nil {
		return 0, err
	}
	return cosyRun(pr, e, raw, "", nil)
}

// RandScanUser probes random records: lseek + read per lookup. Every
// RandBatch lookups form one traced request.
func RandScanUser(pr *sys.Proc, cfg DBConfig) (int64, error) {
	fd, err := pr.Open(cfg.Path, sys.ORdonly)
	if err != nil {
		return 0, err
	}
	buf, err := pr.Mmap(cfg.RecSize)
	if err != nil {
		return 0, err
	}
	rng := sim.NewRand(cfg.Seed)
	var total int64
	for i := 0; i < cfg.Lookups; i++ {
		if i%RandBatch == 0 {
			pr.K.Ktrace.BeginOp(pr.P.PID, OpRandScanBatch)
		}
		rec := rng.Intn(cfg.Records)
		if _, err := pr.Lseek(fd, int64(rec*cfg.RecSize), sys.SeekSet); err != nil {
			pr.K.Ktrace.EndOp(pr.P.PID)
			return 0, err
		}
		n, err := pr.Read(fd, buf)
		if err != nil {
			pr.K.Ktrace.EndOp(pr.P.PID)
			return 0, err
		}
		pr.P.ChargeUser(cfg.ProcessCPU)
		total += int64(n)
		if (i+1)%RandBatch == 0 || i == cfg.Lookups-1 {
			pr.K.Ktrace.EndOp(pr.P.PID)
		}
	}
	return total, pr.Close(fd)
}

// randScanBatchCompound builds the Cosy random scan, or one batch of
// it: count probes whose record sequence comes from an in-compound
// linear congruential generator starting at state x0, so the probe
// loop never leaves the kernel. The host replicates the LCG across
// batches, so the batched probe sequence is identical to the
// single-compound RandScanCosy's.
func randScanBatchCompound(cfg DBConfig, x0 int64, count int) ([]byte, error) {
	b := lib.New()
	pathOff := b.String(cfg.Path)
	recOff := b.Alloc(cfg.RecSize)
	fd := b.Sys(uint16(sys.NrOpen), b.Const(int64(pathOff)), b.Const(0))
	total := b.Const(0)
	x := b.Const(x0)
	a := b.Const(1103515245)
	c := b.Const(12345)
	m := b.Const(1 << 31)
	nrec := b.Const(int64(cfg.Records))
	rsz := b.Const(int64(cfg.RecSize))

	b.CountedLoop(int64(count), func(i lang.Reg) {
		ax := b.Bin("*", a, x)
		axc := b.Bin("+", ax, c)
		b.BinInto(x, "%", axc, m)
		rec := b.Bin("%", x, nrec)
		off := b.Bin("*", rec, rsz)
		b.Sys(uint16(sys.NrLseek), fd, off, b.Const(int64(sys.SeekSet)))
		n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(recOff)), rsz)
		b.BinInto(total, "+", total, n)
		hdr := b.Load(8, b.Const(int64(recOff)))
		b.Bin("&", hdr, hdr)
	})
	b.Sys(uint16(sys.NrClose), fd)
	return b.Build(total)
}

// RandScanCosyBatched runs the random scan as one compound per
// RandBatch lookups, each a traced request, so its per-request
// latency distribution is directly comparable to RandScanUser's.
func RandScanCosyBatched(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	x := randScanSeed(cfg)
	var total int64
	for start := 0; start < cfg.Lookups; start += RandBatch {
		count := RandBatch
		if cfg.Lookups-start < count {
			count = cfg.Lookups - start
		}
		raw, err := randScanBatchCompound(cfg, x, count)
		if err != nil {
			return 0, err
		}
		n, err := cosyRun(pr, e, raw, OpRandScanBatch, nil)
		if err != nil {
			return 0, err
		}
		total += n
		// Advance the host's mirror of the in-compound generator.
		for j := 0; j < count; j++ {
			x = (1103515245*x + 12345) % (1 << 31)
		}
	}
	return total, nil
}

// RandScanCosy runs the random scan as a compound.
func RandScanCosy(pr *sys.Proc, e *kext.Engine, cfg DBConfig) (int64, error) {
	raw, err := randScanBatchCompound(cfg, randScanSeed(cfg), cfg.Lookups)
	if err != nil {
		return 0, err
	}
	return cosyRun(pr, e, raw, "", nil)
}

// randScanSeed is the in-compound generator's initial state.
func randScanSeed(cfg DBConfig) int64 { return int64(cfg.Seed%1_000_003 + 1) }
