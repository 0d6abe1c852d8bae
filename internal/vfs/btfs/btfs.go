// Package btfs is a balanced-tree file system: directory entries live
// in a single B-tree keyed by (directory, name), the way Reiserfs
// keeps its items in one balanced tree. It is the module the KGCC
// experiment compiles with bounds checking (§3.4): the MemTouch hook
// receives the number of memory operations (key comparisons, record
// moves) each call performed, and the instrumented configuration
// charges one runtime check per operation.
package btfs

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// FS implements vfs.FS.
type FS struct {
	name  string
	io    *vfs.IOModel
	tree  btree
	nodes map[vfs.NodeID]*bnode
	next  vfs.NodeID

	OpCPU    sim.Cycles
	CopyByte sim.Cycles
	// MemOpCPU is the baseline CPU cost of one counted machine-level
	// memory operation in module code.
	MemOpCPU sim.Cycles
	// OpsScale converts logical tree operations (a key comparison, an
	// entry move) into machine-level memory operations: each logical
	// operation touches a multi-word key and record.
	OpsScale int64
	// JournalWords is the size, in machine words, of the journal
	// record written for every metadata mutation — Reiserfs is a
	// journaling file system, and its journal copies are module code
	// the bounds checker instruments.
	JournalWords int64
	// JournalCommit forces a synchronous journal write to disk every
	// N records (0 disables). Commit latency is identical whether or
	// not the module is instrumented, which is why PostMark's elapsed
	// ratio sits far below its system-time ratio in E7.
	JournalCommit int64

	// MemTouch, if set, is invoked after each operation with the
	// number of module memory operations performed; the KGCC runtime
	// hooks in here. Data-path byte copies are generic kernel code
	// (not module code), so they are not reported.
	MemTouch func(p *kernel.Process, ops int64)

	// TotalMemOps accumulates all counted module memory operations.
	TotalMemOps int64

	jblock int64
}

type bnode struct {
	attr vfs.Attr
	data vfs.FileData
	// nchildren counts directory entries (for rmdir emptiness).
	nchildren int
	// mapped counts data blocks with tree-mapping items.
	mapped int64
}

// New creates an empty btfs over io.
func New(name string, io *vfs.IOModel) *FS {
	fs := &FS{
		name:          name,
		io:            io,
		nodes:         make(map[vfs.NodeID]*bnode),
		next:          2,
		OpCPU:         vfs.OpCPU,
		CopyByte:      1,
		MemOpCPU:      8,
		OpsScale:      10,
		JournalWords:  1792,
		JournalCommit: 8,
	}
	fs.nodes[1] = &bnode{attr: vfs.Attr{ID: 1, Type: vfs.TypeDir, Nlink: 2, Mode: 0755}}
	return fs
}

// journalNode is the reserved node id whose blocks hold the journal.
const journalNode vfs.NodeID = 0

// journal accounts one metadata transaction: the journal record copy
// (module code, checked), the journal block write, and the periodic
// synchronous commit.
func (fs *FS) journal(p *kernel.Process) {
	fs.touch(p, fs.JournalWords)
	fs.jblock++
	key := vfs.BlockKey{Node: journalNode, Block: fs.jblock % 1024}
	if fs.JournalCommit > 0 && fs.jblock%fs.JournalCommit == 0 {
		fs.io.WriteThrough(p, key)
		return
	}
	fs.io.WriteBlock(p, key)
}

// FSName implements vfs.FS.
func (fs *FS) FSName() string { return fs.name }

// Root implements vfs.FS.
func (fs *FS) Root() vfs.NodeID { return 1 }

// IO exposes the buffer cache.
func (fs *FS) IO() *vfs.IOModel { return fs.io }

// key builds the tree key for a directory entry. Keys order first by
// directory, then by name, so one directory's entries are contiguous.
func key(dir vfs.NodeID, name string) string {
	var buf [64]byte
	return string(append(appendNode(buf[:0], dir, '/'), name...))
}

// appendNode appends the prefix every tree key of node id starts
// with: id as 16 hex digits, then sep ('/' before an entry name, '#'
// before a block number).
func appendNode(dst []byte, id vfs.NodeID, sep byte) []byte {
	return append(appendHex(dst, uint64(id), 16), sep)
}

// appendBlockKey appends the tree key of node id's data block b,
// "<id>#<b in at least 8 hex digits>". Callers build it in a stack
// buffer, so a lookup that finds the block allocates nothing.
func appendBlockKey(dst []byte, id vfs.NodeID, b int64) []byte {
	return appendHex(appendNode(dst, id, '#'), uint64(b), 8)
}

// appendHex appends v in lower-case hex, zero-padded to at least
// width digits (fmt's %0<width>x).
func appendHex(dst []byte, v uint64, width int) []byte {
	for width < 16 && v>>(4*width) != 0 {
		width++
	}
	for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[v>>shift&15])
	}
	return dst
}

// settle charges module CPU for the tree operations performed since
// the last settle, scaled to machine-level memory operations, and
// reports them to the instrumentation hook.
func (fs *FS) settle(p *kernel.Process) {
	fs.touch(p, fs.tree.TakeOps()*fs.OpsScale)
}

// touch accounts n module memory operations.
func (fs *FS) touch(p *kernel.Process, n int64) {
	if n == 0 {
		return
	}
	fs.TotalMemOps += n
	p.Charge(sim.Cycles(n) * fs.MemOpCPU)
	if fs.MemTouch != nil {
		fs.MemTouch(p, n)
	}
}

func (fs *FS) dirNode(id vfs.NodeID) (*bnode, error) {
	n, ok := fs.nodes[id]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if n.attr.Type != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	return n, nil
}

// Lookup implements vfs.FS.
func (fs *FS) Lookup(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	if _, err := fs.dirNode(dir); err != nil {
		return 0, err
	}
	fs.io.ReadBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	id, ok := fs.tree.Get(key(dir, name))
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return vfs.NodeID(id), nil
}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(p *kernel.Process, id vfs.NodeID) (vfs.Attr, error) {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	n, ok := fs.nodes[id]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	fs.io.ReadBlock(p, vfs.BlockKey{Node: id, Block: -1})
	// Stat items live in the tree too: account a lookup's worth of
	// tree traversal.
	fs.tree.Get(key(id, ""))
	return n.attr, nil
}

// Create implements vfs.FS.
func (fs *FS) Create(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	p.Charge(2 * fs.OpCPU)
	defer fs.settle(p)
	d, err := fs.dirNode(dir)
	if err != nil {
		return 0, err
	}
	if _, ok := fs.tree.Get(key(dir, name)); ok {
		return 0, vfs.ErrExist
	}
	id := fs.next
	fs.next++
	fs.nodes[id] = &bnode{attr: vfs.Attr{ID: id, Type: vfs.TypeReg, Nlink: 1, Mode: 0644, Mtime: p.M.Clock.Now()}}
	fs.tree.Put(key(dir, name), uint64(id))
	d.nchildren++
	fs.journal(p)
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: -1})
	return id, nil
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	p.Charge(2 * fs.OpCPU)
	defer fs.settle(p)
	d, err := fs.dirNode(dir)
	if err != nil {
		return 0, err
	}
	if _, ok := fs.tree.Get(key(dir, name)); ok {
		return 0, vfs.ErrExist
	}
	id := fs.next
	fs.next++
	fs.nodes[id] = &bnode{attr: vfs.Attr{ID: id, Type: vfs.TypeDir, Nlink: 2, Mode: 0755, Mtime: p.M.Clock.Now()}}
	fs.tree.Put(key(dir, name), uint64(id))
	d.nchildren++
	fs.journal(p)
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: 0})
	return id, nil
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(p *kernel.Process, dir vfs.NodeID, name string) error {
	p.Charge(2 * fs.OpCPU)
	defer fs.settle(p)
	d, err := fs.dirNode(dir)
	if err != nil {
		return err
	}
	idRaw, ok := fs.tree.Get(key(dir, name))
	if !ok {
		return vfs.ErrNotExist
	}
	id := vfs.NodeID(idRaw)
	n := fs.nodes[id]
	if n.attr.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	fs.tree.Delete(key(dir, name))
	d.nchildren--
	fs.journal(p)
	n.attr.Nlink--
	if n.attr.Nlink == 0 {
		fs.dropBlocks(id, n)
		delete(fs.nodes, id)
	}
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	return nil
}

func (fs *FS) dropBlocks(id vfs.NodeID, n *bnode) {
	blocks := (n.data.Len() + mem.PageSize - 1) / mem.PageSize
	for b := int64(0); b <= blocks; b++ {
		fs.io.Drop(vfs.BlockKey{Node: id, Block: b})
	}
	fs.io.Drop(vfs.BlockKey{Node: id, Block: -1})
}

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(p *kernel.Process, dir vfs.NodeID, name string) error {
	p.Charge(2 * fs.OpCPU)
	defer fs.settle(p)
	d, err := fs.dirNode(dir)
	if err != nil {
		return err
	}
	idRaw, ok := fs.tree.Get(key(dir, name))
	if !ok {
		return vfs.ErrNotExist
	}
	id := vfs.NodeID(idRaw)
	n := fs.nodes[id]
	if n.attr.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if n.nchildren != 0 {
		return vfs.ErrNotEmpty
	}
	fs.tree.Delete(key(dir, name))
	d.nchildren--
	fs.journal(p)
	delete(fs.nodes, id)
	fs.io.Drop(vfs.BlockKey{Node: id, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	return nil
}

// Readdir implements vfs.FS.
func (fs *FS) Readdir(p *kernel.Process, dir vfs.NodeID) ([]vfs.DirEnt, error) {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	if _, err := fs.dirNode(dir); err != nil {
		return nil, err
	}
	fs.io.ReadBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	// The scan stops at "<dir>0", the first key past every "<dir>/name"
	// ('0' follows '/'): the next inode's "<dir+1>#<blk>" data-block
	// items sort before key(dir+1, ""), so that bound would list them.
	prefix := key(dir, "")
	var ents []vfs.DirEnt
	fs.tree.Ascend(prefix, string(appendNode(nil, dir, '0')), func(k string, v uint64) bool {
		name := k[len(prefix):]
		id := vfs.NodeID(v)
		t := vfs.TypeReg
		if n, ok := fs.nodes[id]; ok {
			t = n.attr.Type
		}
		ents = append(ents, vfs.DirEnt{Name: name, ID: id, Type: t})
		return true
	})
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// Read implements vfs.FS.
func (fs *FS) Read(p *kernel.Process, id vfs.NodeID, off int64, buf []byte) (int, error) {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	n, ok := fs.nodes[id]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	if n.attr.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off >= n.data.Len() {
		return 0, nil
	}
	count := n.data.ReadAt(buf, off)
	var kb [32]byte
	for b := off / mem.PageSize; b <= (off+int64(count)-1)/mem.PageSize; b++ {
		// Locate the block's item in the tree, then read it. The byte
		// copy itself is generic kernel code.
		fs.tree.Get(string(appendBlockKey(kb[:0], id, b)))
		fs.io.ReadBlock(p, vfs.BlockKey{Node: id, Block: b})
	}
	p.Charge(sim.Cycles(count) * fs.CopyByte)
	return count, nil
}

// Write implements vfs.FS.
func (fs *FS) Write(p *kernel.Process, id vfs.NodeID, off int64, data []byte) (int, error) {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	n, ok := fs.nodes[id]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	if n.attr.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	end := off + int64(len(data))
	n.data.WriteAt(data, off)
	n.attr.Size = n.data.Len()
	n.attr.Mtime = p.M.Clock.Now()
	journaled := false
	var kb [32]byte
	for b := off / mem.PageSize; b <= (end-1)/mem.PageSize && len(data) > 0; b++ {
		// Every data block is an item in the tree: existing blocks
		// are located, new blocks allocated and inserted (and the
		// allocation journaled).
		bkey := appendBlockKey(kb[:0], id, b)
		if _, ok := fs.tree.Get(string(bkey)); !ok {
			fs.tree.Put(string(bkey), uint64(b))
			n.mapped++
			if !journaled {
				fs.journal(p)
				journaled = true
			}
		}
		fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: b})
	}
	p.Charge(sim.Cycles(len(data)) * fs.CopyByte)
	return len(data), nil
}

// Truncate implements vfs.FS.
func (fs *FS) Truncate(p *kernel.Process, id vfs.NodeID, size int64) error {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	n, ok := fs.nodes[id]
	if !ok {
		return vfs.ErrNotExist
	}
	if n.attr.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if size < 0 {
		return vfs.ErrInval
	}
	n.data.Resize(size)
	n.attr.Size = size
	fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: -1})
	return nil
}

// Rename implements vfs.FS.
func (fs *FS) Rename(p *kernel.Process, odir vfs.NodeID, oname string, ndir vfs.NodeID, nname string) error {
	p.Charge(3 * fs.OpCPU)
	defer fs.settle(p)
	od, err := fs.dirNode(odir)
	if err != nil {
		return err
	}
	nd, err := fs.dirNode(ndir)
	if err != nil {
		return err
	}
	idRaw, ok := fs.tree.Get(key(odir, oname))
	if !ok {
		return vfs.ErrNotExist
	}
	if existingRaw, ok := fs.tree.Get(key(ndir, nname)); ok {
		if fs.nodes[vfs.NodeID(existingRaw)].attr.Type == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		if err := fs.Unlink(p, ndir, nname); err != nil {
			return err
		}
	}
	fs.tree.Delete(key(odir, oname))
	od.nchildren--
	fs.tree.Put(key(ndir, nname), idRaw)
	nd.nchildren++
	fs.journal(p)
	fs.io.WriteBlock(p, vfs.BlockKey{Node: odir, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: ndir, Block: 0})
	return nil
}

// Sync implements vfs.FS.
func (fs *FS) Sync(p *kernel.Process) error {
	p.Charge(fs.OpCPU)
	defer fs.settle(p)
	fs.io.Sync(p)
	return nil
}

// NodeCount reports live inodes.
func (fs *FS) NodeCount() int { return len(fs.nodes) }

// TreeDepth reports the directory tree's B-tree height.
func (fs *FS) TreeDepth() int { return fs.tree.depth() }

var _ vfs.FS = (*FS)(nil)
