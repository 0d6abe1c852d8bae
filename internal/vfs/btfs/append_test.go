package btfs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vfs"
)

// Log-style appends: records of recLen bytes, logRecords to a file.
// allocBound caps the host bytes allocated by those appends, as a
// multiple of the final file size.
const (
	recLen     = 256
	logRecords = 4096
	allocBound = 8
)

// TestAppendAllocationBounded appends 1 MiB in 256-byte records to one
// file and bounds the host bytes allocated meanwhile: regrowing the
// whole file on every extending write would allocate about 2 GB.
func TestAppendAllocationBounded(t *testing.T) {
	fs := newFS()
	rec := bytes.Repeat([]byte{'r'}, recLen)
	run(t, func(p *kernel.Process) error {
		id, err := fs.Create(p, fs.Root(), "log")
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < logRecords; i++ {
			if _, err := fs.Write(p, id, int64(i*recLen), rec); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		const size = logRecords * recLen
		if got := after.TotalAlloc - before.TotalAlloc; got > allocBound*size {
			t.Errorf("appending %d bytes allocated %d bytes, want at most %dx the file size", size, got, allocBound)
		}
		a, err := fs.Getattr(p, id)
		if err != nil || a.Size != size {
			t.Errorf("size = %d, %v; want %d", a.Size, err, size)
		}
		buf := make([]byte, size+1)
		if n, err := fs.Read(p, id, 0, buf); err != nil || n != size || !bytes.Equal(buf[:n], bytes.Repeat(rec, logRecords)) {
			t.Errorf("read back %d bytes, %v", n, err)
		}
		return nil
	})
}

// BenchmarkAppend256 times one 256-byte append; every logRecords
// appends the file is unlinked and a new one started, so the file
// sizes cycle through 0..1 MiB whatever b.N is.
func BenchmarkAppend256(b *testing.B) {
	fs := newFS()
	rec := bytes.Repeat([]byte{'r'}, recLen)
	m := kernel.New(kernel.Config{})
	m.Spawn("bench", func(p *kernel.Process) error {
		var id vfs.NodeID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % logRecords
			if k == 0 {
				if id != 0 {
					if err := fs.Unlink(p, fs.Root(), "log"); err != nil {
						return err
					}
				}
				var err error
				if id, err = fs.Create(p, fs.Root(), "log"); err != nil {
					return err
				}
			}
			if _, err := fs.Write(p, id, int64(k*recLen), rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
