package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/cosy/kext"
	"repro/internal/cosy/lib"
	"repro/internal/kgcc"
	"repro/internal/kring"
	"repro/internal/sys"
)

// table: one database process over several table files. Ingest
// appends a batch of records with one ring_enter; a scan is one
// ring_enter whose reads an anycall extension keeps re-staging in the
// kernel; a point lookup is one Cosy compound over the ring.

// pumpSource is the scan's anycall extension. Invoked after each read
// as pump(completions so far, the read's result, its errno, arg), it
// stages template block k = pos/2 — the next read into its own record
// window, chased by another anycall — until the window count (arg's
// low 10 bits) is reached or a read hits end of file. arg's high bits
// are the table's template base offset in the ring's data area.
const pumpSource = `
int pump(int pos, int prev, int err, int arg) {
	int k = pos >> 1;
	if (prev > 0 && k < (arg & 1023)) {
		return (((arg >> 10) + (k - 1) * 136) << 3) + 2;
	}
	return 0;
}`

// blkSize is one staged template block: [u64 count][read SQE][anycall SQE].
const blkSize = 8 + 2*kring.SQESize

// Ring data-area layout (offsets in bytes).
func (c *tblClient) ingestOff() int { return 0 }
func (c *tblClient) scanOff() int   { return c.cfg.batch * recSize }
func (c *tblClient) tmplOff(t int) int {
	return c.scanOff() + c.cfg.window*recSize + t*(c.cfg.window-1)*blkSize
}
func (c *tblClient) dataBytes() int { return c.tmplOff(c.cfg.tables) }
func tablePath(t int) string        { return "/b/t" + strconv.Itoa(t) }

// Lookup compound's shared-buffer layout: [u64 record][u64 fd][record].
const (
	lkArgs = 0
	lkRec  = 16
)

// lookupCompound reads the record number and descriptor the caller
// stored in the shared buffer, seeks, and reads the record into it.
func lookupCompound() ([]byte, int, error) {
	b := lib.New()
	args := b.Alloc(16)
	rec := b.Alloc(recSize)
	rno := b.Load(8, b.Const(int64(args)))
	fd := b.Load(8, b.Const(int64(args+8)))
	off := b.Bin("*", rno, b.Const(recSize))
	b.Sys(uint16(sys.NrLseek), fd, off, b.Const(sys.SeekSet))
	n := b.Sys(uint16(sys.NrRead), fd, b.Const(int64(rec)), b.Const(recSize))
	raw, err := b.Build(n)
	return raw, args + 16 + recSize, err
}

// tblClient is the database process and its reference model: the
// record count of every table (a record's contents are a function of
// its table and number).
type tblClient struct {
	cfg  tblConfig
	reqs []tblReq
	pool []byte
	rec  *recorder
	nrec []int
	ext  int // pump extension id
	eng  *kext.Engine
	// corrupt flips one byte of the n-th verified record (-1: never).
	corrupt int

	// Per-layer counts for the traced run.
	enters, sqes, scanned, lookups int64
	kuloadNs                       int64
}

func (c *tblClient) populate(p *proc) error {
	buf, err := p.pr.Mmap(recSize)
	if err != nil {
		return err
	}
	rec := make([]byte, recSize)
	for t := 0; t < c.cfg.tables; t++ {
		fd, err := p.pr.Creat(tablePath(t))
		if err != nil {
			return err
		}
		for r := 0; r < c.cfg.initial; r++ {
			record(c.pool, t, r, rec)
			if err := p.pr.Poke(buf, rec); err != nil {
				return err
			}
			if _, err := p.pr.Write(fd, buf); err != nil {
				return err
			}
		}
		if err := p.pr.Close(fd); err != nil {
			return err
		}
		c.nrec[t] = c.cfg.initial
	}
	start := cpuNow()
	c.ext, err = p.pr.KuLoad(sys.KuSpec{Source: pumpSource, Entry: "pump", Checks: kgcc.KcheckOptions()})
	c.kuloadNs = cpuNow() - start
	return err
}

// tblSession is the client's open state during the op phase.
type tblSession struct {
	ring     *sys.RingHandle
	appendFd []int
	scanFd   []int
	lookFd   []int
	shm      *kext.Shm
	compound []byte
	rec      []byte
	cqes     []kring.CQE
}

func (c *tblClient) open(p *proc) (*tblSession, error) {
	s := &tblSession{rec: make([]byte, recSize)}
	for t := 0; t < c.cfg.tables; t++ {
		a, err := p.pr.Open(tablePath(t), sys.OWronly)
		if err != nil {
			return nil, err
		}
		if _, err := p.pr.Lseek(a, 0, sys.SeekEnd); err != nil {
			return nil, err
		}
		sc, err := p.pr.Open(tablePath(t), sys.ORdonly)
		if err != nil {
			return nil, err
		}
		lk, err := p.pr.Open(tablePath(t), sys.ORdonly)
		if err != nil {
			return nil, err
		}
		s.appendFd = append(s.appendFd, a)
		s.scanFd = append(s.scanFd, sc)
		s.lookFd = append(s.lookFd, lk)
	}
	var err error
	if s.ring, err = p.pr.RingSetup(128, c.dataBytes()); err != nil {
		return nil, err
	}
	// Stage every table's scan templates once: block k reads the next
	// record into window k and re-arms the pump.
	blk := make([]byte, blkSize)
	binary.LittleEndian.PutUint64(blk, 2)
	for t := 0; t < c.cfg.tables; t++ {
		for k := 1; k < c.cfg.window; k++ {
			read := kring.SQE{Op: uint16(sys.NrRead), Args: [4]int64{int64(s.scanFd[t])},
				DataOff: uint32(c.scanOff() + k*recSize), DataLen: recSize, UserTag: uint64(k)}
			kring.EncodeSQE(blk[8:], &read)
			kring.EncodeSQE(blk[8+kring.SQESize:], c.anycall(t))
			v, err := s.ring.View(c.tmplOff(t)+(k-1)*blkSize, blkSize)
			if err != nil {
				return nil, err
			}
			if err := v.CopyOut(0, blk); err != nil {
				return nil, err
			}
		}
	}
	compound, shmSize, err := lookupCompound()
	if err != nil {
		return nil, err
	}
	s.compound = compound
	if s.shm, err = c.eng.NewShm(shmSize); err != nil {
		return nil, err
	}
	return s, nil
}

func (c *tblClient) anycall(t int) *kring.SQE {
	return &kring.SQE{Op: kring.OpAnycall, Ext: uint32(c.ext),
		Args: [4]int64{int64(c.tmplOff(t))<<10 | int64(c.cfg.window)}, UserTag: 1 << 32}
}

func (c *tblClient) run(p *proc) error {
	s, err := c.open(p)
	if err != nil {
		return err
	}
	for i := range c.reqs {
		q := &c.reqs[i]
		start := c.rec.opStart(p)
		var err error
		switch q.kind {
		case reqIngest:
			err = c.ingest(p, s, q)
		case reqScan:
			err = c.scan(p, s, q)
		default:
			err = c.lookup(p, s, q)
		}
		c.rec.opEnd(p, start, err)
	}
	return s.ring.Close()
}

// enter submits the staged SQEs with one ring_enter and reaps want
// completions, failing on any error completion.
func (c *tblClient) enter(p *proc, s *tblSession, kind spanKind, want int64) ([]kring.CQE, error) {
	p.t.begin(p.pid, kind)
	n, err := s.ring.Enter()
	p.t.end(p.pid)
	if err != nil {
		return nil, err
	}
	c.enters++
	c.sqes += n
	if n != want {
		return nil, fmt.Errorf("%w: ring_enter completed %d entries, want %d", errMismatch, n, want)
	}
	s.cqes = s.cqes[:0]
	for i := int64(0); i < n; i++ {
		cqe, herr, err := s.ring.Pop()
		if err != nil {
			return nil, err
		}
		if herr != nil {
			return nil, herr
		}
		s.cqes = append(s.cqes, cqe)
	}
	return s.cqes, nil
}

func (c *tblClient) ingest(p *proc, s *tblSession, q *tblReq) error {
	for i := 0; i < q.n; i++ {
		off := c.ingestOff() + i*recSize
		record(c.pool, q.table, q.rec+i, s.rec)
		v, err := s.ring.View(off, recSize)
		if err != nil {
			return err
		}
		if err := v.CopyOut(0, s.rec); err != nil {
			return err
		}
		if err := s.ring.Push(&kring.SQE{Op: uint16(sys.NrWrite), Args: [4]int64{int64(s.appendFd[q.table])},
			DataOff: uint32(off), DataLen: recSize, UserTag: uint64(i)}); err != nil {
			return err
		}
	}
	cqes, err := c.enter(p, s, spRingIngest, int64(q.n))
	if err != nil {
		return err
	}
	for _, e := range cqes {
		if e.Res != recSize {
			return fmt.Errorf("%w: append of %d bytes", errMismatch, e.Res)
		}
	}
	c.nrec[q.table] += q.n
	c.rec.digest(uint64(c.nrec[q.table]))
	return nil
}

func (c *tblClient) scan(p *proc, s *tblSession, q *tblReq) error {
	fd := int64(s.scanFd[q.table])
	if err := s.ring.Push(&kring.SQE{Op: uint16(sys.NrLseek),
		Args: [4]int64{fd, int64(q.rec) * recSize, sys.SeekSet}, UserTag: 1 << 33}); err != nil {
		return err
	}
	if err := s.ring.Push(&kring.SQE{Op: uint16(sys.NrRead), Args: [4]int64{fd},
		DataOff: uint32(c.scanOff()), DataLen: recSize}); err != nil {
		return err
	}
	if err := s.ring.Push(c.anycall(q.table)); err != nil {
		return err
	}
	// The lseek, then a read and an anycall per record.
	cqes, err := c.enter(p, s, spRingScan, 1+2*int64(q.n))
	if err != nil {
		return err
	}
	for _, e := range cqes {
		if e.UserTag < 1<<32 && e.Res != recSize {
			return fmt.Errorf("%w: scan read %d returned %d bytes", errMismatch, e.UserTag, e.Res)
		}
	}
	for k := 0; k < q.n; k++ {
		v, err := s.ring.View(c.scanOff()+k*recSize, recSize)
		if err != nil {
			return err
		}
		if err := v.CopyIn(0, s.rec); err != nil {
			return err
		}
		if err := c.check(q.table, q.rec+k, s.rec); err != nil {
			return err
		}
	}
	c.scanned += int64(q.n)
	return nil
}

func (c *tblClient) lookup(p *proc, s *tblSession, q *tblReq) error {
	var args [16]byte
	binary.LittleEndian.PutUint64(args[0:], uint64(q.rec))
	binary.LittleEndian.PutUint64(args[8:], uint64(s.lookFd[q.table]))
	if err := s.shm.Write(lkArgs, args[:]); err != nil {
		return err
	}
	p.t.begin(p.pid, spCosy)
	n, err := c.eng.ExecRing(p.pr, s.compound, s.shm)
	p.t.end(p.pid)
	if err != nil {
		return err
	}
	c.lookups++
	if n != recSize {
		return fmt.Errorf("%w: lookup of record %d read %d bytes", errMismatch, q.rec, n)
	}
	got, err := s.shm.Read(lkRec, recSize)
	if err != nil {
		return err
	}
	return c.check(q.table, q.rec, got)
}

// check compares got, as read back for record r of table t, with the
// model's contents.
func (c *tblClient) check(t, r int, got []byte) error {
	if c.corrupt == 0 {
		got[recSize/2] ^= 0xFF
	}
	c.corrupt--
	var want [recSize]byte
	record(c.pool, t, r, want[:])
	c.rec.digest(binary.LittleEndian.Uint64(got), uint64(got[recSize-1]))
	if !bytes.Equal(got, want[:]) {
		return fmt.Errorf("%w: record %d of table %d", errMismatch, r, t)
	}
	return nil
}

// verify reads every table back whole and compares each record. It
// reports the first mismatch of every table.
func (c *tblClient) verify(p *proc) []error {
	var errs []error
	for t := 0; t < c.cfg.tables; t++ {
		if err := c.verifyTable(p, t); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (c *tblClient) verifyTable(p *proc, t int) error {
	size := c.nrec[t] * recSize
	buf, err := p.pr.Mmap(size + recSize)
	if err != nil {
		return err
	}
	fd, err := p.pr.Open(tablePath(t), sys.ORdonly)
	if err != nil {
		return err
	}
	n, err := p.pr.Read(fd, buf)
	if err != nil {
		return err
	}
	if err := p.pr.Close(fd); err != nil {
		return err
	}
	if n != size {
		return fmt.Errorf("%w: table %d holds %d bytes, model %d", errMismatch, t, n, size)
	}
	data, err := p.pr.Peek(buf, n)
	if err != nil {
		return err
	}
	want := make([]byte, recSize)
	for r := 0; r < c.nrec[t]; r++ {
		record(c.pool, t, r, want)
		if !bytes.Equal(data[r*recSize:(r+1)*recSize], want) {
			return fmt.Errorf("%w: final record %d of table %d", errMismatch, r, t)
		}
	}
	return nil
}
