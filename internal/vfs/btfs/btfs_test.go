package btfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/vfs"
)

func newFS() *FS {
	return New("btfs", vfs.NewIOModel(disk.New(disk.IDE7200()), 4096))
}

func run(t *testing.T, fn func(p *kernel.Process) error) {
	t.Helper()
	m := kernel.New(kernel.Config{})
	m.Spawn("test", fn)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateLookupReadWrite(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, err := fs.Create(p, fs.Root(), "file.txt")
		if err != nil {
			return err
		}
		got, err := fs.Lookup(p, fs.Root(), "file.txt")
		if err != nil || got != id {
			t.Errorf("lookup = %d,%v", got, err)
		}
		data := []byte("hello btfs")
		if _, err := fs.Write(p, id, 0, data); err != nil {
			return err
		}
		buf := make([]byte, 64)
		n, err := fs.Read(p, id, 0, buf)
		if err != nil || !bytes.Equal(buf[:n], data) {
			t.Errorf("read = %q,%v", buf[:n], err)
		}
		a, err := fs.Getattr(p, id)
		if err != nil || a.Size != int64(len(data)) {
			t.Errorf("attr = %+v, %v", a, err)
		}
		return nil
	})
}

func TestCreateExisting(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		if _, err := fs.Create(p, fs.Root(), "x"); err != nil {
			return err
		}
		if _, err := fs.Create(p, fs.Root(), "x"); !errors.Is(err, vfs.ErrExist) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestMkdirUnlinkRmdir(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		d, err := fs.Mkdir(p, fs.Root(), "dir")
		if err != nil {
			return err
		}
		f, err := fs.Create(p, d, "inner")
		if err != nil {
			return err
		}
		_ = f
		if err := fs.Rmdir(p, fs.Root(), "dir"); !errors.Is(err, vfs.ErrNotEmpty) {
			t.Errorf("rmdir non-empty = %v", err)
		}
		if err := fs.Unlink(p, d, "inner"); err != nil {
			return err
		}
		if err := fs.Rmdir(p, fs.Root(), "dir"); err != nil {
			return err
		}
		if _, err := fs.Lookup(p, fs.Root(), "dir"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("lookup after rmdir = %v", err)
		}
		return nil
	})
}

func TestUnlinkDirFails(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		if _, err := fs.Mkdir(p, fs.Root(), "d"); err != nil {
			return err
		}
		if err := fs.Unlink(p, fs.Root(), "d"); !errors.Is(err, vfs.ErrIsDir) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestReaddirSortedAndScoped(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		d1, _ := fs.Mkdir(p, fs.Root(), "a")
		// A child whose inode is d1+1, with data blocks: its block
		// items "<d1+1>#<blk>" sort right after d1's entries.
		log, err := fs.Create(p, d1, "log")
		if err != nil {
			return err
		}
		if log != d1+1 {
			t.Fatalf("log inode = %d, want %d", log, d1+1)
		}
		if _, err := fs.Write(p, log, 0, make([]byte, 3*mem.PageSize)); err != nil {
			return err
		}
		d2, _ := fs.Mkdir(p, fs.Root(), "b")
		for i := 0; i < 10; i++ {
			if _, err := fs.Create(p, d1, fmt.Sprintf("f%02d", i)); err != nil {
				return err
			}
		}
		if _, err := fs.Create(p, d2, "other"); err != nil {
			return err
		}
		ents, err := fs.Readdir(p, d1)
		if err != nil {
			return err
		}
		var want []string
		for i := 0; i < 10; i++ {
			want = append(want, fmt.Sprintf("f%02d", i))
		}
		want = append(want, "log")
		if len(ents) != len(want) {
			t.Errorf("readdir(a) = %d entries %v, want %v", len(ents), ents, want)
		}
		for i, e := range ents {
			if i < len(want) && e.Name != want[i] {
				t.Errorf("ents[%d] = %q, want %q", i, e.Name, want[i])
			}
		}
		root, err := fs.Readdir(p, fs.Root())
		if err != nil {
			return err
		}
		if len(root) != 2 {
			t.Errorf("readdir(/) = %d entries", len(root))
		}
		return nil
	})
}

func TestRename(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "old")
		d, _ := fs.Mkdir(p, fs.Root(), "sub")
		if err := fs.Rename(p, fs.Root(), "old", d, "new"); err != nil {
			return err
		}
		if _, err := fs.Lookup(p, fs.Root(), "old"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("old still present: %v", err)
		}
		got, err := fs.Lookup(p, d, "new")
		if err != nil || got != id {
			t.Errorf("new = %d,%v", got, err)
		}
		return nil
	})
}

func TestRenameOverwrites(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		a, _ := fs.Create(p, fs.Root(), "a")
		if _, err := fs.Create(p, fs.Root(), "b"); err != nil {
			return err
		}
		if err := fs.Rename(p, fs.Root(), "a", fs.Root(), "b"); err != nil {
			return err
		}
		got, err := fs.Lookup(p, fs.Root(), "b")
		if err != nil || got != a {
			t.Errorf("b = %d,%v want %d", got, err, a)
		}
		ents, _ := fs.Readdir(p, fs.Root())
		if len(ents) != 1 {
			t.Errorf("root has %d entries", len(ents))
		}
		return nil
	})
}

func TestTruncate(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Write(p, id, 0, []byte("0123456789")); err != nil {
			return err
		}
		if err := fs.Truncate(p, id, 4); err != nil {
			return err
		}
		buf := make([]byte, 16)
		n, _ := fs.Read(p, id, 0, buf)
		if string(buf[:n]) != "0123" {
			t.Errorf("after shrink: %q", buf[:n])
		}
		if err := fs.Truncate(p, id, 8); err != nil {
			return err
		}
		n, _ = fs.Read(p, id, 0, buf)
		if n != 8 || !bytes.Equal(buf[4:8], []byte{0, 0, 0, 0}) {
			t.Errorf("after grow: %v", buf[:n])
		}
		return nil
	})
}

func TestSparseWriteAndOffsets(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Write(p, id, 100, []byte("end")); err != nil {
			return err
		}
		a, _ := fs.Getattr(p, id)
		if a.Size != 103 {
			t.Errorf("size = %d", a.Size)
		}
		buf := make([]byte, 3)
		if n, _ := fs.Read(p, id, 100, buf); n != 3 || string(buf) != "end" {
			t.Errorf("read at offset: %q", buf[:n])
		}
		if n, _ := fs.Read(p, id, 500, buf); n != 0 {
			t.Errorf("read past EOF = %d", n)
		}
		return nil
	})
}

func TestMemTouchHookAndCounter(t *testing.T) {
	fs := newFS()
	var hookOps int64
	fs.MemTouch = func(p *kernel.Process, ops int64) { hookOps += ops }
	run(t, func(p *kernel.Process) error {
		for i := 0; i < 50; i++ {
			if _, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%d", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 50; i++ {
			if _, err := fs.Lookup(p, fs.Root(), fmt.Sprintf("f%d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if hookOps == 0 || fs.TotalMemOps == 0 {
		t.Fatalf("instrumentation hook saw %d ops, counter %d", hookOps, fs.TotalMemOps)
	}
	if hookOps != fs.TotalMemOps {
		t.Fatalf("hook %d != counter %d", hookOps, fs.TotalMemOps)
	}
}

func TestMetadataHeavierThanDataPath(t *testing.T) {
	// The E7 asymmetry: metadata ops run much more module code (tree
	// ops) than data-path byte copies do.
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		for i := 0; i < 200; i++ {
			if _, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%03d", i)); err != nil {
				return err
			}
		}
		metaOps := fs.TotalMemOps
		id, _ := fs.Lookup(p, fs.Root(), "f000")
		fs.TotalMemOps = 0
		buf := make([]byte, 4096)
		for i := 0; i < 200; i++ {
			if _, err := fs.Write(p, id, 0, buf); err != nil {
				return err
			}
		}
		dataOps := fs.TotalMemOps
		if metaOps < 4*dataOps {
			t.Errorf("metadata ops %d not >> data ops %d", metaOps, dataOps)
		}
		return nil
	})
}

func TestLargeDirectoryScales(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		const n = 3000
		for i := 0; i < n; i++ {
			if _, err := fs.Create(p, fs.Root(), fmt.Sprintf("file-%05d", i)); err != nil {
				return err
			}
		}
		ents, err := fs.Readdir(p, fs.Root())
		if err != nil {
			return err
		}
		if len(ents) != n {
			t.Errorf("readdir = %d", len(ents))
		}
		if d := fs.TreeDepth(); d < 2 {
			t.Errorf("depth = %d", d)
		}
		return nil
	})
}

// TestKeysMatchFormat pins the tree key encoding to the fmt formats
// it replaced, so existing key order (and with it every simulated
// cycle the tree charges) is unchanged.
func TestKeysMatchFormat(t *testing.T) {
	for _, id := range []vfs.NodeID{0, 1, 255, 256, 0xabcdef, 1<<64 - 1} {
		if got, want := key(id, "name"), fmt.Sprintf("%016x/%s", uint64(id), "name"); got != want {
			t.Errorf("key(%d) = %q, want %q", id, got, want)
		}
		if got, want := string(appendNode(nil, id, '0')), fmt.Sprintf("%016x0", uint64(id)); got != want {
			t.Errorf("bound(%d) = %q, want %q", id, got, want)
		}
		for _, b := range []int64{0, 7, 0x1234, 0xffffffff, 1 << 32, 1<<36 + 5, -1} {
			got := string(appendBlockKey(nil, id, b))
			if want := fmt.Sprintf("%016x#%08x", uint64(id), uint64(b)); got != want {
				t.Errorf("block key(%d, %d) = %q, want %q", id, b, got, want)
			}
		}
	}
}
