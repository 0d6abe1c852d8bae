package vfs

import "repro/internal/mem"

// extentSize is the size of one full extent of file data.
const extentSize = 4 * mem.PageSize

// FileData holds the bytes of one regular file for the in-memory file
// systems (memfs, btfs). A file is a list of full extents of
// extentSize bytes followed by one tail of at most extentSize bytes.
// Growing the file touches only the tail, so an append costs at most
// one extent's copy instead of a copy of the whole file:
//
//   - a file of up to extentSize bytes is one exact-size allocation,
//     regrown exactly on each extending write (as small files always
//     were), so small files carry no spare capacity;
//   - every extent after the first is allocated at its full size when
//     the file first reaches it, and appends into it fill that
//     capacity without reallocating.
//
// FileData is pure host-side storage: it charges nothing, and the file
// systems keep their simulated costs exactly as they are. The zero
// value is an empty file.
type FileData struct {
	full [][]byte
	tail []byte
}

// Len reports the file size in bytes.
func (d *FileData) Len() int64 {
	return int64(len(d.full))*extentSize + int64(len(d.tail))
}

// extent returns extent i: a full extent, or the tail past them.
func (d *FileData) extent(i int64) []byte {
	if i < int64(len(d.full)) {
		return d.full[i]
	}
	return d.tail
}

// ReadAt copies file bytes starting at off (off >= 0) into buf and
// returns the number copied: 0 at or past the end of the file.
func (d *FileData) ReadAt(buf []byte, off int64) int {
	n := 0
	for n < len(buf) && off < d.Len() {
		c := copy(buf[n:], d.extent(off / extentSize)[off%extentSize:])
		n += c
		off += int64(c)
	}
	return n
}

// WriteAt copies data into the file at off (off >= 0), growing the
// file first if the write ends past it. A gap between the old end and
// off reads as zeros.
func (d *FileData) WriteAt(data []byte, off int64) {
	if end := off + int64(len(data)); end > d.Len() {
		d.Resize(end)
	}
	for len(data) > 0 {
		c := copy(d.extent(off / extentSize)[off%extentSize:], data)
		data = data[c:]
		off += int64(c)
	}
}

// Resize sets the file size. Bytes past the old end read as zeros.
func (d *FileData) Resize(size int64) {
	switch n := d.Len(); {
	case size < n:
		d.shrink(size)
	case size > n:
		d.grow(size)
	}
}

// shrink cuts the file to size bytes, keeping the extent that holds
// the new end as the tail (without copying it).
func (d *FileData) shrink(size int64) {
	k, r := size/extentSize, size%extentSize
	if k < int64(len(d.full)) {
		d.tail = d.full[k]
		clear(d.full[k:])
		d.full = d.full[:k]
	}
	d.tail = d.tail[:r]
	if r == 0 {
		d.tail = nil
	}
}

// grow extends the file to size bytes of zeros past the old end.
//
// Spare tail capacity is cleared before it is used: after a shrinking
// Resize it still holds the bytes cut off, and without the clear a
// later read would see them. This is the one place that guarantees
// that bytes past the old end read as zeros.
func (d *FileData) grow(size int64) {
	for {
		base := int64(len(d.full)) * extentSize
		want := min(size-base, extentSize)
		switch l := int64(len(d.tail)); {
		case l >= want:
		case int64(cap(d.tail)) >= want:
			clear(d.tail[l:want])
			d.tail = d.tail[:want]
		default:
			c := want
			if len(d.full) > 0 {
				c = extentSize
			}
			t := make([]byte, want, c)
			copy(t, d.tail)
			d.tail = t
		}
		if size-base <= extentSize {
			return
		}
		d.full = append(d.full, d.tail)
		d.tail = nil
	}
}
