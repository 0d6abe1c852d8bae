package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sys"
	"repro/internal/vfs"
)

// smallfile: PostMark's transaction mix through classic trap
// syscalls, one simulated client process per directory.

// readBuf is the user buffer a read transaction reads into (one read
// per transaction, like PostMark's).
const readBuf = 16 << 10

// errMismatch marks a result that disagrees with the reference model.
var errMismatch = errors.New("result differs from the reference model")

// proc is a client's syscall context with a span around each call.
type proc struct {
	pr  *sys.Proc
	pid int
	t   *tracer
}

func newProc(pr *sys.Proc, t *tracer) *proc { return &proc{pr: pr, pid: pr.P.PID, t: t} }

func (p *proc) open(path string, flags int) (int, error) {
	p.t.begin(p.pid, spSysOpen)
	defer p.t.end(p.pid)
	return p.pr.Open(path, flags)
}

func (p *proc) creat(path string) (int, error) {
	p.t.begin(p.pid, spSysCreat)
	defer p.t.end(p.pid)
	return p.pr.Creat(path)
}

func (p *proc) read(fd int, ub sys.UserBuf) (int, error) {
	p.t.begin(p.pid, spSysRead)
	defer p.t.end(p.pid)
	return p.pr.Read(fd, ub)
}

func (p *proc) write(fd int, ub sys.UserBuf) (int, error) {
	p.t.begin(p.pid, spSysWrite)
	defer p.t.end(p.pid)
	return p.pr.Write(fd, ub)
}

func (p *proc) close(fd int) error {
	p.t.begin(p.pid, spSysClose)
	defer p.t.end(p.pid)
	return p.pr.Close(fd)
}

func (p *proc) unlink(path string) error {
	p.t.begin(p.pid, spSysUnlink)
	defer p.t.end(p.pid)
	return p.pr.Unlink(path)
}

func (p *proc) lseek(fd int, off int64, whence int) (int64, error) {
	p.t.begin(p.pid, spSysLseek)
	defer p.t.end(p.pid)
	return p.pr.Lseek(fd, off, whence)
}

// sfModel is the reference model of one client directory: path ->
// contents, each file a list of pool extents.
type sfModel map[string][]extent

func (m sfModel) size(name string) int {
	n := 0
	for _, e := range m[name] {
		n += int(e.n)
	}
	return n
}

// matches reports whether got equals the first len(got) bytes of name.
func (m sfModel) matches(pool []byte, name string, got []byte) bool {
	for _, e := range m[name] {
		if len(got) == 0 {
			break
		}
		k := min(int(e.n), len(got))
		if !bytes.Equal(got[:k], pool[e.off:int(e.off)+k]) {
			return false
		}
		got = got[k:]
	}
	return len(got) == 0
}

// sfClient runs one client's transactions as a closed loop: each
// transaction starts when the previous one has completed.
type sfClient struct {
	st    *sfStream
	model sfModel
	pool  []byte
	rec   *recorder
	// corrupt flips one byte of the n-th verified read, so tests can
	// prove a wrong result is caught (-1: never).
	corrupt int
	// list makes the final check list the directory with getdents.
	list bool
}

func (c *sfClient) populate(p *proc) error {
	if err := p.pr.Mkdir(c.st.dir); err != nil {
		return err
	}
	buf, err := p.pr.Mmap(readBuf)
	if err != nil {
		return err
	}
	for i, name := range c.st.initial {
		if err := c.create(p, buf, name, c.st.initExt[i]); err != nil {
			return err
		}
	}
	return nil
}

func (c *sfClient) run(p *proc) error {
	buf, err := p.pr.Mmap(readBuf)
	if err != nil {
		return err
	}
	scratch := make([]byte, readBuf)
	for i := range c.st.txns {
		tx := &c.st.txns[i]
		start := c.rec.opStart(p)
		err := c.txn(p, buf, scratch, tx)
		c.rec.opEnd(p, start, err)
	}
	return nil
}

func (c *sfClient) txn(p *proc, buf sys.UserBuf, scratch []byte, tx *sfTxn) error {
	if tx.target != "" {
		var err error
		if tx.read {
			err = c.readFile(p, buf, scratch, tx.target)
		} else {
			err = c.appendFile(p, buf, tx.target, tx.data)
		}
		if err != nil {
			return err
		}
	}
	if tx.create {
		return c.create(p, buf, tx.name, tx.createData)
	}
	if err := p.unlink(tx.name); err != nil {
		return err
	}
	delete(c.model, tx.name)
	return nil
}

func (c *sfClient) readFile(p *proc, buf sys.UserBuf, scratch []byte, name string) error {
	fd, err := p.open(name, sys.ORdonly)
	if err != nil {
		return err
	}
	n, err := p.read(fd, buf)
	if err != nil {
		return err
	}
	if err := p.close(fd); err != nil {
		return err
	}
	if n != min(c.model.size(name), readBuf) {
		return fmt.Errorf("%w: read %s returned %d bytes", errMismatch, name, n)
	}
	got := scratch[:n]
	if err := p.pr.P.UAS.View(buf.Addr, n).CopyIn(0, got); err != nil {
		return err
	}
	if c.corrupt == 0 && n > 0 {
		got[n/2] ^= 0xFF
	}
	c.corrupt--
	c.rec.digest(uint64(n), uint64(got[0]), uint64(got[n-1]))
	if !c.model.matches(c.pool, name, got) {
		return fmt.Errorf("%w: read %s returned different bytes", errMismatch, name)
	}
	return nil
}

func (c *sfClient) appendFile(p *proc, buf sys.UserBuf, name string, e extent) error {
	fd, err := p.open(name, sys.OWronly)
	if err != nil {
		return err
	}
	end, err := p.lseek(fd, 0, sys.SeekEnd)
	if err != nil {
		return err
	}
	if end != int64(c.model.size(name)) {
		return fmt.Errorf("%w: %s is %d bytes", errMismatch, name, end)
	}
	if err := c.writeExtent(p, fd, buf, e); err != nil {
		return err
	}
	c.model[name] = append(c.model[name], e)
	return p.close(fd)
}

func (c *sfClient) create(p *proc, buf sys.UserBuf, name string, e extent) error {
	fd, err := p.creat(name)
	if err != nil {
		return err
	}
	if err := c.writeExtent(p, fd, buf, e); err != nil {
		return err
	}
	c.model[name] = []extent{e}
	return p.close(fd)
}

func (c *sfClient) writeExtent(p *proc, fd int, buf sys.UserBuf, e extent) error {
	data := c.pool[e.off : e.off+e.n]
	if err := p.pr.Poke(buf, data); err != nil {
		return err
	}
	n, err := p.write(fd, sys.UserBuf{Addr: buf.Addr, Len: len(data)})
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("%w: short write of %d/%d bytes", errMismatch, n, len(data))
	}
	c.rec.digest(uint64(n))
	return nil
}

// verify compares the client's final directory with the model: every
// model file's full contents, every deleted file gone and, when the
// client lists its directory, the same names. It reports every
// mismatch it finds rather than stopping at the first.
func (c *sfClient) verify(p *proc) []error {
	var errs []error
	var want []string
	for name := range c.model {
		want = append(want, name)
	}
	sort.Strings(want)
	if c.list {
		got, err := c.listDir(p)
		if err != nil {
			return []error{err}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			errs = append(errs, fmt.Errorf("%w: %s holds %d files, model %d", errMismatch, c.st.dir, len(got), len(want)))
		}
	}
	for _, name := range c.deleted() {
		if _, err := p.pr.Stat(name); !errors.Is(err, vfs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("%w: deleted %s: stat gave %v", errMismatch, name, err))
		}
	}
	largest := 0
	for _, name := range want {
		largest = max(largest, c.model.size(name))
	}
	buf, err := p.pr.Mmap(largest + 1)
	if err != nil {
		return append(errs, err)
	}
	for _, name := range want {
		if err := c.verifyFile(p, buf, name); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// listDir returns the client directory's entries as sorted paths.
func (c *sfClient) listDir(p *proc) ([]string, error) {
	fd, err := p.pr.Open(c.st.dir, sys.ORdonly)
	if err != nil {
		return nil, err
	}
	ents, err := p.pr.Getdents(fd)
	if err != nil {
		return nil, err
	}
	if err := p.pr.Close(fd); err != nil {
		return nil, err
	}
	var got []string
	for _, e := range ents {
		got = append(got, c.st.dir+"/"+e.Name)
	}
	sort.Strings(got)
	return got, nil
}

// deleted returns, in stream order, every file the client created and
// the model no longer holds.
func (c *sfClient) deleted() []string {
	var out []string
	for _, name := range c.st.initial {
		if _, ok := c.model[name]; !ok {
			out = append(out, name)
		}
	}
	for i := range c.st.txns {
		tx := &c.st.txns[i]
		if _, ok := c.model[tx.name]; tx.create && !ok {
			out = append(out, tx.name)
		}
	}
	return out
}

// verifyFile reads name back whole into buf and compares it with the
// model.
func (c *sfClient) verifyFile(p *proc, buf sys.UserBuf, name string) error {
	fd, err := p.pr.Open(name, sys.ORdonly)
	if err != nil {
		return fmt.Errorf("final open of %s: %w", name, err)
	}
	n, err := p.pr.Read(fd, buf)
	if err != nil {
		return fmt.Errorf("final read of %s: %w", name, err)
	}
	if err := p.pr.Close(fd); err != nil {
		return err
	}
	data, err := p.pr.Peek(buf, n)
	if err != nil {
		return err
	}
	if n != c.model.size(name) || !c.model.matches(c.pool, name, data) {
		return fmt.Errorf("%w: final contents of %s", errMismatch, name)
	}
	return nil
}
