// Package workload implements the benchmark workloads the paper's
// evaluations run: PostMark (§3.3, §3.4), an Am-utils-style compile
// (§3.2, §3.4), an interactive desktop session for trace collection
// (§2.2), and the database-style scans of the Cosy evaluation (§2.3).
// All workloads issue real system calls through sys.Proc, so every
// configuration difference (instrumented FS, guarded allocator,
// attached monitor) shows up in the measured elapsed/system/user
// times exactly as it would on the paper's testbed.
package workload

import (
	"fmt"

	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kring"
	"repro/internal/sim"
	"repro/internal/sys"
)

// PostMarkConfig follows Katcher's benchmark parameters: a pool of
// small files, a transaction mix of reads/appends and
// creates/deletes.
type PostMarkConfig struct {
	Dir          string
	InitialFiles int
	Transactions int
	MinSize      int
	MaxSize      int
	// ReadBias is the probability a transaction is a read (vs
	// append); CreateBias the probability the second half is a create
	// (vs delete).
	ReadBias   float64
	CreateBias float64
	Seed       uint64
	// UserThink is the user-mode CPU charged per transaction
	// (PostMark itself does little user work).
	UserThink sim.Cycles
	// Think, when set, replaces the default per-transaction
	// ChargeUser(UserThink) — the kucode evaluation routes the think
	// time through a loaded extension instead of a plain user charge.
	Think func(pr *sys.Proc) error
}

// Request-trace operation names for the instrumented workloads. Each
// marks one logical client-visible operation whose latency the
// critical-path analyzer decomposes.
const (
	OpPostmarkTxn   = "postmark.txn"
	OpCompileUnit   = "compile.unit"
	OpSeqScanBatch  = "dbscan.seq.batch"
	OpRandScanBatch = "dbscan.rand.batch"
	// OpPostmarkBatch is the traced request of PostMarkRing: one per
	// ring_enter (a batch of transactions).
	OpPostmarkBatch = "postmark.batch"
)

// DefaultPostMark mirrors the classic defaults scaled to simulation
// size.
func DefaultPostMark() PostMarkConfig {
	return PostMarkConfig{
		Dir:          "/pm",
		InitialFiles: 300,
		Transactions: 2000,
		MinSize:      512,
		MaxSize:      9 << 10,
		ReadBias:     0.5,
		CreateBias:   0.5,
		Seed:         42,
		UserThink:    400,
	}
}

// PostMarkStats reports what the run did.
type PostMarkStats struct {
	Created, Deleted, Read, Appended int
	BytesRead, BytesWritten          int64
}

// PostMark runs the benchmark on pr, one trap per system call.
func PostMark(pr *sys.Proc, cfg PostMarkConfig) (PostMarkStats, error) {
	return postMark(pr, cfg, &pmTrap{})
}

// PostMarkCosy runs the PostMark transaction mix with each
// transaction consolidated into one Cosy compound: the read/append
// half and the create/delete half cross the user/kernel boundary once
// together instead of once per call. Setup and cleanup use the plain
// syscall path; the decisions are PostMark's, so the per-transaction
// latency distributions of both variants are directly comparable.
func PostMarkCosy(pr *sys.Proc, e *kext.Engine, cfg PostMarkConfig) (PostMarkStats, error) {
	return postMark(pr, cfg, &pmCosy{e: e})
}

// PostMarkRing runs PostMark through the kring data plane: every
// system call, setup and cleanup included, is staged as an SQE
// (descriptors flow between them via FlagFDRel, payloads ride the
// shared data area), and batch SQEs share one ring_enter crossing.
func PostMarkRing(pr *sys.Proc, cfg PostMarkConfig, batch int) (PostMarkStats, error) {
	return postMark(pr, cfg, &pmRing{batch: max(batch, 1)})
}

// postMark is PostMark's one body. It draws every random decision,
// keeps the file list and the stats known at decision time, and hands
// each logical operation to s, which alone decides how the operation
// crosses the boundary. Every submitter therefore runs the identical
// workload and must report identical stats.
func postMark(pr *sys.Proc, cfg PostMarkConfig, s submitter) (PostMarkStats, error) {
	var st PostMarkStats
	rng := sim.NewRand(cfg.Seed)
	if err := pr.Mkdir(cfg.Dir); err != nil {
		return st, err
	}
	if err := s.open(&pmEnv{pr: pr, cfg: cfg, st: &st}); err != nil {
		return st, err
	}

	var files []string
	nextID := 0
	create := func() error {
		name := fmt.Sprintf("%s/f%06d", cfg.Dir, nextID)
		nextID++
		size := rng.Range(cfg.MinSize, cfg.MaxSize)
		if err := s.create(name, size); err != nil {
			return err
		}
		files = append(files, name)
		st.Created++
		st.BytesWritten += int64(size)
		return nil
	}
	txn := func() error {
		// Half one: read or append an existing file.
		if len(files) > 0 {
			name := files[rng.Intn(len(files))]
			if rng.Bool(cfg.ReadBias) {
				if err := s.read(name); err != nil {
					return err
				}
			} else {
				size := rng.Range(128, 2048)
				if err := s.appendTo(name, size); err != nil {
					return err
				}
				st.Appended++
				st.BytesWritten += int64(size)
			}
		}
		// Half two: create or delete.
		if rng.Bool(cfg.CreateBias) {
			return create()
		}
		if len(files) == 0 {
			return nil
		}
		i := rng.Intn(len(files))
		name := files[i]
		files[i] = files[len(files)-1]
		files = files[:len(files)-1]
		if err := s.unlink(name); err != nil {
			return err
		}
		st.Deleted++
		return nil
	}

	for i := 0; i < cfg.InitialFiles; i++ {
		if err := create(); err != nil {
			return st, err
		}
	}
	for t := 0; t < cfg.Transactions; t++ {
		err := s.begin()
		if err == nil {
			err = txn()
		}
		if err := s.end(err); err != nil {
			return st, err
		}
	}
	// Cleanup phase.
	for _, name := range files {
		if err := s.unlink(name); err != nil {
			return st, err
		}
		st.Deleted++
	}
	if err := s.close(); err != nil {
		return st, err
	}
	return st, pr.Rmdir(cfg.Dir)
}

// submitter carries PostMark's logical operations across the
// user/kernel boundary. Operations between begin and end form one
// transaction; those outside are setup and cleanup. end receives the
// transaction's error so far and returns its final one. A read
// settles Read and BytesRead itself, since only the submitter learns
// how many bytes came back.
//
// Where a submitter places think time, ktrace operations and
// crossings is what keeps each entry point's simulated cycles fixed
// (DESIGN.md §12).
type submitter interface {
	open(env *pmEnv) error
	begin() error
	create(name string, size int) error
	read(name string) error
	appendTo(name string, size int) error
	unlink(name string) error
	end(err error) error
	close() error
}

// pmEnv is the run state every submitter shares with the body.
type pmEnv struct {
	pr  *sys.Proc
	cfg PostMarkConfig
	st  *PostMarkStats
}

// think charges one transaction's user work: cfg.Think when set,
// else a plain UserThink charge.
func (v *pmEnv) think() error {
	if v.cfg.Think != nil {
		return v.cfg.Think(v.pr)
	}
	v.pr.P.ChargeUser(v.cfg.UserThink)
	return nil
}

// pmTrap issues one system call per operation. Each transaction is
// one traced request: BeginOp, think, the calls, EndOp.
type pmTrap struct {
	*pmEnv
	buf sys.UserBuf
}

func (s *pmTrap) open(env *pmEnv) (err error) {
	s.pmEnv = env
	s.buf, err = env.pr.Mmap(env.cfg.MaxSize)
	return err
}

func (s *pmTrap) begin() error {
	s.pr.K.Ktrace.BeginOp(s.pr.P.PID, OpPostmarkTxn)
	return s.think()
}

func (s *pmTrap) end(err error) error {
	s.pr.K.Ktrace.EndOp(s.pr.P.PID)
	return err
}

func (s *pmTrap) close() error { return nil }

func (s *pmTrap) create(name string, size int) error {
	fd, err := s.pr.Creat(name)
	if err != nil {
		return err
	}
	return s.writeClose(fd, size)
}

func (s *pmTrap) read(name string) error {
	fd, err := s.pr.Open(name, sys.ORdonly)
	if err != nil {
		return err
	}
	n, err := s.pr.Read(fd, s.buf)
	if err != nil {
		return err
	}
	if err := s.pr.Close(fd); err != nil {
		return err
	}
	s.st.Read++
	s.st.BytesRead += int64(n)
	return nil
}

func (s *pmTrap) appendTo(name string, size int) error {
	fd, err := s.pr.Open(name, sys.OWronly)
	if err != nil {
		return err
	}
	if _, err := s.pr.Lseek(fd, 0, sys.SeekEnd); err != nil {
		return err
	}
	return s.writeClose(fd, size)
}

func (s *pmTrap) unlink(name string) error { return s.pr.Unlink(name) }

// writeClose writes size bytes of the scratch buffer to fd and
// closes it.
func (s *pmTrap) writeClose(fd, size int) error {
	if _, err := s.pr.Write(fd, sys.UserBuf{Addr: s.buf.Addr, Len: size}); err != nil {
		return err
	}
	return s.pr.Close(fd)
}

// pmCosy builds each transaction into one compound and runs it as one
// traced request after the build: NewShm, BeginOp, think, ExecRing,
// EndOp. Operations outside a transaction run by trap.
type pmCosy struct {
	pmTrap
	e      *kext.Engine
	b      *lib.Builder // the open transaction's compound; nil outside one
	bufOff int
	ret    lang.Reg // sum of the transaction's read results
	reads  bool
}

func (s *pmCosy) begin() error {
	s.b = lib.New()
	s.bufOff = s.b.Alloc(s.cfg.MaxSize)
	s.ret = s.b.Const(0)
	s.reads = false
	return nil
}

// end runs the transaction's compound, even an empty one.
func (s *pmCosy) end(err error) error {
	b := s.b
	s.b = nil
	if err != nil {
		return err
	}
	raw, err := b.Build(s.ret)
	if err != nil {
		return err
	}
	n, err := cosyRun(s.pr, s.e, raw, OpPostmarkTxn, s.think)
	if err != nil {
		return err
	}
	if s.reads {
		s.st.Read++
		s.st.BytesRead += n
	}
	return nil
}

// path stages name in the compound and loads its offset.
func (s *pmCosy) path(name string) lang.Reg {
	return s.b.Const(int64(s.b.String(name)))
}

func (s *pmCosy) create(name string, size int) error {
	if s.b == nil {
		return s.pmTrap.create(name, size)
	}
	s.writeCloseOp(s.b.Sys(uint16(sys.NrCreat), s.path(name)), size)
	return nil
}

func (s *pmCosy) read(name string) error {
	if s.b == nil {
		return s.pmTrap.read(name)
	}
	b := s.b
	fd := b.Sys(uint16(sys.NrOpen), s.path(name), b.Const(sys.ORdonly))
	n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(s.bufOff)), b.Const(int64(s.cfg.MaxSize)))
	b.BinInto(s.ret, "+", s.ret, n)
	b.Sys(uint16(sys.NrClose), fd)
	s.reads = true
	return nil
}

func (s *pmCosy) appendTo(name string, size int) error {
	if s.b == nil {
		return s.pmTrap.appendTo(name, size)
	}
	b := s.b
	fd := b.Sys(uint16(sys.NrOpen), s.path(name), b.Const(sys.OWronly))
	b.Sys(uint16(sys.NrLseek), fd, b.Const(0), b.Const(int64(sys.SeekEnd)))
	s.writeCloseOp(fd, size)
	return nil
}

func (s *pmCosy) unlink(name string) error {
	if s.b == nil {
		return s.pmTrap.unlink(name)
	}
	s.b.Sys(uint16(sys.NrUnlink), s.path(name))
	return nil
}

// writeCloseOp emits a write of size bytes of the compound's buffer
// to fd and the close of fd.
func (s *pmCosy) writeCloseOp(fd lang.Reg, size int) {
	s.b.Sys(uint16(sys.NrWrite), fd, s.b.Const(int64(s.bufOff)), s.b.Const(int64(size)))
	s.b.Sys(uint16(sys.NrClose), fd)
}

// pmTagRead marks read SQEs, whose stats are settled at reap.
const pmTagRead uint64 = 1

// pmRing stages every operation as SQEs and flushes batch SQEs per
// ring_enter, each flush one traced request. Think time runs at
// transaction start; the crossings fall wherever the ring fills.
type pmRing struct {
	*pmEnv
	h      *sys.RingHandle
	batch  int // flush threshold in SQEs
	pushed int
	cursor int // data-area staging cursor, reset per flush
}

func (r *pmRing) open(env *pmEnv) error {
	r.pmEnv = env
	// A transaction is up to 7 SQEs. Size the data area for the
	// batch's payloads; the cursor check flushes early rather than
	// exceed the ring ceiling.
	entries, data := ringSize(r.batch, 8, r.batch*(env.cfg.MaxSize+64)+2*env.cfg.MaxSize+8192)
	h, err := env.pr.RingSetup(entries, data)
	r.h = h
	return err
}

func (r *pmRing) begin() error        { return r.think() }
func (r *pmRing) end(err error) error { return err }

func (r *pmRing) close() error {
	if err := r.flush(); err != nil {
		return err
	}
	return r.h.Close()
}

func (r *pmRing) create(name string, size int) error {
	return r.stage(name,
		kring.SQE{Op: uint16(sys.NrCreat)},
		kring.SQE{Op: uint16(sys.NrWrite), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataLen: uint32(size)},
		kring.SQE{Op: uint16(sys.NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}})
}

func (r *pmRing) read(name string) error {
	return r.stage(name,
		kring.SQE{Op: uint16(sys.NrOpen), Args: [4]int64{int64(sys.ORdonly)}},
		kring.SQE{Op: uint16(sys.NrRead), Flags: kring.FlagFDRel, Args: [4]int64{1},
			DataLen: uint32(r.cfg.MaxSize), UserTag: pmTagRead},
		kring.SQE{Op: uint16(sys.NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}})
}

func (r *pmRing) appendTo(name string, size int) error {
	return r.stage(name,
		kring.SQE{Op: uint16(sys.NrOpen), Args: [4]int64{int64(sys.OWronly)}},
		kring.SQE{Op: uint16(sys.NrLseek), Flags: kring.FlagFDRel, Args: [4]int64{1, 0, int64(sys.SeekEnd)}},
		kring.SQE{Op: uint16(sys.NrWrite), Flags: kring.FlagFDRel, Args: [4]int64{2}, DataLen: uint32(size)},
		kring.SQE{Op: uint16(sys.NrClose), Flags: kring.FlagFDRel, Args: [4]int64{3}})
}

func (r *pmRing) unlink(name string) error {
	return r.stage(name, kring.SQE{Op: uint16(sys.NrUnlink)})
}

// stage queues one operation's SQEs, flushing first if they would not
// fit the batch. The first SQE gets name's window in the data area;
// every later SQE with a DataLen gets a payload window of that size
// (PostMark's payloads are uninitialized, as on the trap path).
func (r *pmRing) stage(name string, sqes ...kring.SQE) error {
	need := len(name)
	for _, e := range sqes[1:] {
		need += int(e.DataLen)
	}
	if r.pushed+len(sqes) > r.h.Entries() || r.cursor+need > r.h.DataLen() || r.pushed >= r.batch {
		if err := r.flush(); err != nil {
			return err
		}
	}
	v, err := r.h.View(r.cursor, len(name))
	if err != nil {
		return err
	}
	if err := v.CopyOut(0, []byte(name)); err != nil {
		return err
	}
	sqes[0].DataOff, sqes[0].DataLen = uint32(r.cursor), uint32(len(name))
	r.cursor += len(name)
	for i := range sqes {
		if i > 0 && sqes[i].DataLen > 0 {
			sqes[i].DataOff = uint32(r.cursor)
			r.cursor += int(sqes[i].DataLen)
		}
		if err := r.h.Push(&sqes[i]); err != nil {
			return err
		}
		r.pushed++
	}
	return nil
}

// flush drains the staged batch in one crossing and settles the read
// stats from the tagged completions.
func (r *pmRing) flush() error {
	if r.pushed == 0 {
		return nil
	}
	n, err := ringEnter(r.pr, r.h, OpPostmarkBatch, func(cqe kring.CQE) {
		if cqe.UserTag == pmTagRead {
			r.st.Read++
			r.st.BytesRead += cqe.Res
		}
	})
	if err != nil {
		return err
	}
	if int(n) != r.pushed {
		return fmt.Errorf("postmark ring: flushed %d of %d entries", n, r.pushed)
	}
	r.pushed, r.cursor = 0, 0
	return nil
}
