package sys

import "repro/internal/vfs"

// Open flags.
const (
	ORdonly = 0
	OWronly = 1 << iota
	ORdwr
	OCreate
	OTrunc
)

// Open opens path, optionally creating or truncating it.
func (pr *Proc) Open(path string, flags int) (int, error) {
	pr.enter(NrOpen, len(path))
	defer pr.exit(NrOpen, len(path), 0)
	a := Args{Path: path, Flags: flags}
	fd, err := bodyOpen(pr, &a)
	return int(fd), err
}

// openInternal is the kernel-side open, shared with Cosy and the
// consolidated calls.
func (pr *Proc) openInternal(path string, flags int) (int, error) {
	if dev, ok := pr.K.NS.LookupDevice(path); ok {
		return pr.installFD(&file{dev: dev, path: path})
	}
	fs, node, err := pr.K.NS.Resolve(pr.P, path)
	if err != nil {
		if flags&OCreate == 0 {
			return -1, err
		}
		pfs, parent, name, perr := pr.K.NS.ResolveParent(pr.P, path)
		if perr != nil {
			return -1, perr
		}
		node, err = pfs.Create(pr.P, parent, name)
		if err != nil {
			return -1, err
		}
		pr.K.NS.Dc.Insert(pr.P, pfs, parent, name, node)
		fs = pfs
	} else if flags&OTrunc != 0 {
		if err := fs.Truncate(pr.P, node, 0); err != nil {
			return -1, err
		}
	}
	return pr.installFD(&file{fs: fs, node: node, path: path})
}

// Creat creates (or truncates) path and opens it for writing.
func (pr *Proc) Creat(path string) (int, error) {
	pr.enter(NrCreat, len(path))
	defer pr.exit(NrCreat, len(path), 0)
	a := Args{Path: path}
	fd, err := bodyCreat(pr, &a)
	return int(fd), err
}

// Close releases a descriptor.
func (pr *Proc) Close(fd int) error {
	pr.enter(NrClose, 0)
	defer pr.exit(NrClose, 0, 0)
	a := Args{Fd: fd}
	_, err := bodyClose(pr, &a)
	return err
}

func (pr *Proc) closeInternal(fd int) error {
	if _, err := pr.file(fd); err != nil {
		return err
	}
	pr.fds[fd] = nil
	return nil
}

// Read reads up to ub.Len bytes at the descriptor's offset into the
// user buffer, returning the count.
func (pr *Proc) Read(fd int, ub UserBuf) (int, error) {
	pr.enter(NrRead, 0)
	a := Args{Fd: fd, Buf: pr.P.UAS.View(ub.Addr, ub.Len)}
	n, err := bodyRead(pr, &a)
	if err != nil {
		pr.exit(NrRead, 0, 0)
		return 0, err
	}
	pr.exit(NrRead, 0, a.Out)
	return int(n), nil
}

// readInternal reads into a kernel buffer (no boundary copy); Cosy's
// entrypoint.
func (pr *Proc) readInternal(fd int, kbuf []byte) (int, error) {
	f, err := pr.file(fd)
	if err != nil {
		return 0, err
	}
	if f.dev != nil {
		return f.dev.DevRead(pr.P, kbuf)
	}
	n, err := f.fs.Read(pr.P, f.node, f.off, kbuf)
	if err != nil {
		return 0, err
	}
	f.off += int64(n)
	return n, nil
}

// Write writes the user buffer at the descriptor's offset.
func (pr *Proc) Write(fd int, ub UserBuf) (int, error) {
	pr.enter(NrWrite, ub.Len)
	a := Args{Fd: fd, Buf: pr.P.UAS.View(ub.Addr, ub.Len)}
	n, err := bodyWrite(pr, &a)
	if !a.CopiedIn {
		pr.exit(NrWrite, 0, 0)
		return 0, err
	}
	pr.exit(NrWrite, ub.Len, 0)
	return int(n), err
}

func (pr *Proc) writeInternal(fd int, data []byte) (int, error) {
	f, err := pr.file(fd)
	if err != nil {
		return 0, err
	}
	if f.dev != nil {
		return f.dev.DevWrite(pr.P, data)
	}
	n, err := f.fs.Write(pr.P, f.node, f.off, data)
	if err != nil {
		return 0, err
	}
	f.off += int64(n)
	return n, nil
}

// Lseek whence values.
const (
	SeekSet = iota
	SeekCur
	SeekEnd
)

// Lseek repositions the descriptor offset.
func (pr *Proc) Lseek(fd int, off int64, whence int) (int64, error) {
	pr.enter(NrLseek, 0)
	defer pr.exit(NrLseek, 0, 0)
	a := Args{Fd: fd, Off: off, Whence: whence}
	return bodyLseek(pr, &a)
}

func (pr *Proc) lseekInternal(fd int, off int64, whence int) (int64, error) {
	f, err := pr.file(fd)
	if err != nil {
		return 0, err
	}
	switch whence {
	case SeekSet:
		f.off = off
	case SeekCur:
		f.off += off
	case SeekEnd:
		a, err := f.fs.Getattr(pr.P, f.node)
		if err != nil {
			return 0, err
		}
		f.off = a.Size + off
	default:
		return 0, vfs.ErrInval
	}
	if f.off < 0 {
		f.off = 0
		return 0, vfs.ErrInval
	}
	return f.off, nil
}

// Stat returns the attributes of path.
func (pr *Proc) Stat(path string) (vfs.Attr, error) {
	pr.enter(NrStat, len(path))
	a := Args{Path: path}
	if _, err := bodyStat(pr, &a); err != nil {
		pr.exit(NrStat, len(path), 0)
		return vfs.Attr{}, err
	}
	pr.exit(NrStat, len(path), a.Out)
	return a.Attr, nil
}

func (pr *Proc) statInternal(path string) (vfs.Attr, error) {
	fs, node, err := pr.K.NS.Resolve(pr.P, path)
	if err != nil {
		return vfs.Attr{}, err
	}
	return fs.Getattr(pr.P, node)
}

// Fstat returns the attributes of an open descriptor.
func (pr *Proc) Fstat(fd int) (vfs.Attr, error) {
	pr.enter(NrFstat, 0)
	a := Args{Fd: fd}
	if _, err := bodyFstat(pr, &a); err != nil {
		pr.exit(NrFstat, 0, 0)
		return vfs.Attr{}, err
	}
	pr.exit(NrFstat, 0, a.Out)
	return a.Attr, nil
}

func (pr *Proc) fstatInternal(fd int) (vfs.Attr, error) {
	f, err := pr.file(fd)
	if err != nil {
		return vfs.Attr{}, err
	}
	return f.fs.Getattr(pr.P, f.node)
}

// Getdents returns all directory entries of an open directory,
// copying the dirent records to user space.
func (pr *Proc) Getdents(fd int) ([]vfs.DirEnt, error) {
	pr.enter(NrGetdents, 0)
	f, err := pr.file(fd)
	if err != nil {
		pr.exit(NrGetdents, 0, 0)
		return nil, err
	}
	ents, err := f.fs.Readdir(pr.P, f.node)
	if err != nil {
		pr.exit(NrGetdents, 0, 0)
		return nil, err
	}
	out := 0
	for _, e := range ents {
		out += e.Bytes()
	}
	pr.exit(NrGetdents, 0, out)
	return ents, nil
}

// Unlink removes a file.
func (pr *Proc) Unlink(path string) error {
	pr.enter(NrUnlink, len(path))
	defer pr.exit(NrUnlink, len(path), 0)
	a := Args{Path: path}
	_, err := bodyUnlink(pr, &a)
	return err
}

func (pr *Proc) unlinkInternal(path string) error {
	fs, parent, name, err := pr.K.NS.ResolveParent(pr.P, path)
	if err != nil {
		return err
	}
	if err := fs.Unlink(pr.P, parent, name); err != nil {
		return err
	}
	pr.K.NS.Dc.Invalidate(pr.P, fs, parent, name)
	return nil
}

// Mkdir creates a directory.
func (pr *Proc) Mkdir(path string) error {
	pr.enter(NrMkdir, len(path))
	defer pr.exit(NrMkdir, len(path), 0)
	a := Args{Path: path}
	_, err := bodyMkdir(pr, &a)
	return err
}

// Rmdir removes an empty directory.
func (pr *Proc) Rmdir(path string) error {
	pr.enter(NrRmdir, len(path))
	defer pr.exit(NrRmdir, len(path), 0)
	a := Args{Path: path}
	_, err := bodyRmdir(pr, &a)
	return err
}

// Rename moves oldPath to newPath (same file system only).
func (pr *Proc) Rename(oldPath, newPath string) error {
	pr.enter(NrRename, len(oldPath)+len(newPath))
	defer pr.exit(NrRename, len(oldPath)+len(newPath), 0)
	a := Args{Path: oldPath, Path2: newPath}
	_, err := bodyRename(pr, &a)
	return err
}

// Fsync flushes the descriptor's file system.
func (pr *Proc) Fsync(fd int) error {
	pr.enter(NrFsync, 0)
	defer pr.exit(NrFsync, 0, 0)
	a := Args{Fd: fd}
	_, err := bodyFsync(pr, &a)
	return err
}

// Getpid is the canonical null syscall, useful for measuring the
// bare crossing cost.
func (pr *Proc) Getpid() int {
	pr.enter(NrGetpid, 0)
	defer pr.exit(NrGetpid, 0, 0)
	a := Args{}
	pid, _ := bodyGetpid(pr, &a)
	return int(pid)
}
