package vfs

import (
	"bytes"
	"testing"
)

// File-data fuzz ops. Each op is opLen bytes: kind, a 3-byte
// little-endian offset and a 2-byte little-endian length.
const (
	opWrite = iota
	opResize
	opRead
	opKinds

	opLen = 6
	// maxOff spans five extents, so sequences cross extent boundaries
	// and leave sparse gaps.
	maxOff = 5 * extentSize
	maxN   = extentSize + extentSize/2
)

// fdOp encodes one op for the seed corpus.
func fdOp(kind int, off, n int) []byte {
	return []byte{byte(kind), byte(off), byte(off >> 8), byte(off >> 16), byte(n), byte(n >> 8)}
}

func fdOps(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// FuzzFileData runs op sequences against FileData and a plain []byte
// model: after every op the size and the whole content must match.
// Each write fills its bytes with a value unique to the op, so a read
// that returns bytes left by an earlier write shows as a mismatch.
func FuzzFileData(f *testing.F) {
	const e = extentSize
	// Appends of 256-byte records across the first extent boundary.
	var appends [][]byte
	for i := 0; i < 70; i++ {
		appends = append(appends, fdOp(opWrite, i*256, 256))
	}
	f.Add(fdOps(appends...))
	// A sparse write far past the end, then reads on both sides of it.
	f.Add(fdOps(fdOp(opWrite, 3*e+100, 50), fdOp(opRead, 0, e), fdOp(opRead, 3*e+90, 100)))
	// Writes straddling extent boundaries, one spanning a whole extent.
	f.Add(fdOps(fdOp(opWrite, e-10, 30), fdOp(opWrite, 2*e-1, e+2), fdOp(opRead, e-20, maxN)))
	// Shrink, then grow by resize and by a write past the end: the
	// regrown bytes must read as zeros, not as the bytes cut off.
	f.Add(fdOps(fdOp(opWrite, 0, 2*e+500), fdOp(opResize, 5000, 0), fdOp(opResize, 2*e+9000, 0),
		fdOp(opResize, 100, 0), fdOp(opWrite, e+7, 10)))
	// Shrink to an extent boundary and to empty, then grow again.
	f.Add(fdOps(fdOp(opWrite, 0, 3*e), fdOp(opResize, e, 0), fdOp(opWrite, e+20, 5),
		fdOp(opResize, 0, 0), fdOp(opResize, 40, 0)))
	// Reads at and past EOF, and zero-length writes past it.
	f.Add(fdOps(fdOp(opWrite, 0, 10), fdOp(opRead, 10, 5), fdOp(opRead, 4*e, 5), fdOp(opWrite, 2*e, 0)))

	f.Fuzz(func(t *testing.T, prog []byte) {
		var d FileData
		var model []byte
		for i := 0; i+opLen <= len(prog) && i < 64*opLen; i += opLen {
			op := prog[i : i+opLen]
			off := (int(op[1]) | int(op[2])<<8 | int(op[3])<<16) % (maxOff + 1)
			n := (int(op[4]) | int(op[5])<<8) % (maxN + 1)
			switch op[0] % opKinds {
			case opWrite:
				data := bytes.Repeat([]byte{byte(i/opLen + 1)}, n)
				d.WriteAt(data, int64(off))
				if end := off + n; end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], data)
			case opResize:
				d.Resize(int64(off))
				if off < len(model) {
					model = model[:off:off]
				} else {
					model = append(model, make([]byte, off-len(model))...)
				}
			case opRead:
				buf := make([]byte, n)
				got := d.ReadAt(buf, int64(off))
				want := model[min(off, len(model)):]
				want = want[:min(n, len(want))]
				if got != len(want) || !bytes.Equal(buf[:got], want) {
					t.Fatalf("op %d: ReadAt(%d bytes at %d) = %d bytes, want %d", i/opLen, n, off, got, len(want))
				}
			}
			if d.Len() != int64(len(model)) {
				t.Fatalf("op %d: Len = %d, want %d", i/opLen, d.Len(), len(model))
			}
			all := make([]byte, len(model)+1)
			if got := d.ReadAt(all, 0); got != len(model) || !bytes.Equal(all[:got], model) {
				t.Fatalf("op %d: content differs from the model (read %d of %d bytes)", i/opLen, got, len(model))
			}
		}
	})
}
