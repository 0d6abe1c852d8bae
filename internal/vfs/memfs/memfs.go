// Package memfs is the simulated machine's baseline disk file system,
// standing in for the paper's Ext2/Ext3. Metadata lives in memory
// (the inode and dentry structures a real FS would also cache), while
// data and metadata block accesses go through the shared vfs.IOModel
// buffer cache so cold reads, write-back, and sync behave like a real
// disk file system.
package memfs

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
	nodes map[vfs.NodeID]*mnode
	next  vfs.NodeID

	// OpCPU is the per-operation CPU cost (kernel mode); CopyByte the
	// per-byte page-cache copy cost.
	OpCPU    sim.Cycles
	CopyByte sim.Cycles
}

type mnode struct {
	attr     vfs.Attr
	data     vfs.FileData
	children map[string]vfs.NodeID
}

// New creates an empty file system over io.
func New(name string, io *vfs.IOModel) *FS {
	fs := &FS{
		name:     name,
		io:       io,
		nodes:    make(map[vfs.NodeID]*mnode),
		next:     2,
		OpCPU:    vfs.OpCPU,
		CopyByte: 1,
	}
	fs.nodes[1] = &mnode{
		attr:     vfs.Attr{ID: 1, Type: vfs.TypeDir, Nlink: 2, Mode: 0755},
		children: make(map[string]vfs.NodeID),
	}
	return fs
}

// FSName implements vfs.FS.
func (fs *FS) FSName() string { return fs.name }

// Root implements vfs.FS.
func (fs *FS) Root() vfs.NodeID { return 1 }

// IO exposes the buffer cache for stats.
func (fs *FS) IO() *vfs.IOModel { return fs.io }

func (fs *FS) charge(p *kernel.Process, c sim.Cycles) {
	p.Charge(c)
}

func (fs *FS) dir(p *kernel.Process, id vfs.NodeID) (*mnode, error) {
	n, ok := fs.nodes[id]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	if n.attr.Type != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	// Directory blocks are metadata reads.
	fs.io.ReadBlock(p, vfs.BlockKey{Node: id, Block: 0})
	return n, nil
}

// Lookup implements vfs.FS.
func (fs *FS) Lookup(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	fs.charge(p, fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return 0, err
	}
	id, ok := d.children[name]
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return id, nil
}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(p *kernel.Process, id vfs.NodeID) (vfs.Attr, error) {
	fs.charge(p, fs.OpCPU)
	n, ok := fs.nodes[id]
	if !ok {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	// Inode block read.
	fs.io.ReadBlock(p, vfs.BlockKey{Node: id, Block: -1})
	return n.attr, nil
}

// Create implements vfs.FS.
func (fs *FS) Create(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	fs.charge(p, 2*fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return 0, err
	}
	if _, ok := d.children[name]; ok {
		return 0, vfs.ErrExist
	}
	id := fs.next
	fs.next++
	fs.nodes[id] = &mnode{attr: vfs.Attr{ID: id, Type: vfs.TypeReg, Nlink: 1, Mode: 0644, Mtime: p.M.Clock.Now()}}
	d.children[name] = id
	// The directory block receiving the new entry and the new inode
	// block are dirtied.
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: dirEntryBlock(len(d.children))})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: -1})
	return id, nil
}

// dirEntryBlock maps the n-th directory entry to its data block,
// assuming the on-disk dirent slot size.
const direntSlot = 40

func dirEntryBlock(n int) int64 {
	return int64(n * direntSlot / mem.PageSize)
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(p *kernel.Process, dir vfs.NodeID, name string) (vfs.NodeID, error) {
	fs.charge(p, 2*fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return 0, err
	}
	if _, ok := d.children[name]; ok {
		return 0, vfs.ErrExist
	}
	id := fs.next
	fs.next++
	fs.nodes[id] = &mnode{
		attr:     vfs.Attr{ID: id, Type: vfs.TypeDir, Nlink: 2, Mode: 0755, Mtime: p.M.Clock.Now()},
		children: make(map[string]vfs.NodeID),
	}
	d.children[name] = id
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: dirEntryBlock(len(d.children))})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: 0})
	return id, nil
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(p *kernel.Process, dir vfs.NodeID, name string) error {
	fs.charge(p, 2*fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return err
	}
	id, ok := d.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := fs.nodes[id]
	if n.attr.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(d.children, name)
	n.attr.Nlink--
	if n.attr.Nlink == 0 {
		fs.dropBlocks(id, n)
		delete(fs.nodes, id)
	}
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	return nil
}

func (fs *FS) dropBlocks(id vfs.NodeID, n *mnode) {
	blocks := (n.data.Len() + mem.PageSize - 1) / mem.PageSize
	for b := int64(0); b <= blocks; b++ {
		fs.io.Drop(vfs.BlockKey{Node: id, Block: b})
	}
	fs.io.Drop(vfs.BlockKey{Node: id, Block: -1})
}

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(p *kernel.Process, dir vfs.NodeID, name string) error {
	fs.charge(p, 2*fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return err
	}
	id, ok := d.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := fs.nodes[id]
	if n.attr.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if len(n.children) != 0 {
		return vfs.ErrNotEmpty
	}
	delete(d.children, name)
	delete(fs.nodes, id)
	fs.io.Drop(vfs.BlockKey{Node: id, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: dir, Block: 0})
	return nil
}

// Readdir implements vfs.FS.
func (fs *FS) Readdir(p *kernel.Process, dir vfs.NodeID) ([]vfs.DirEnt, error) {
	fs.charge(p, fs.OpCPU)
	d, err := fs.dir(p, dir)
	if err != nil {
		return nil, err
	}
	ents := make([]vfs.DirEnt, 0, len(d.children))
	for name, id := range d.children {
		ents = append(ents, vfs.DirEnt{Name: name, ID: id, Type: fs.nodes[id].attr.Type})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	// Scanning entries costs CPU proportional to the directory size,
	// and large directories span multiple blocks (the same blocks
	// entry insertion dirtied).
	fs.charge(p, sim.Cycles(len(ents))*20)
	for b := int64(1); b <= dirEntryBlock(len(ents)); b++ {
		fs.io.ReadBlock(p, vfs.BlockKey{Node: dir, Block: b})
	}
	return ents, nil
}

// Read implements vfs.FS.
func (fs *FS) Read(p *kernel.Process, id vfs.NodeID, off int64, buf []byte) (int, error) {
	fs.charge(p, fs.OpCPU)
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
	for b := off / mem.PageSize; b <= (off+int64(count)-1)/mem.PageSize; b++ {
		fs.io.ReadBlock(p, vfs.BlockKey{Node: id, Block: b})
	}
	fs.charge(p, sim.Cycles(count)*fs.CopyByte)
	return count, nil
}

// Write implements vfs.FS.
func (fs *FS) Write(p *kernel.Process, id vfs.NodeID, off int64, data []byte) (int, error) {
	fs.charge(p, fs.OpCPU)
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
	for b := off / mem.PageSize; b <= (end-1)/mem.PageSize && len(data) > 0; b++ {
		fs.io.WriteBlock(p, vfs.BlockKey{Node: id, Block: b})
	}
	fs.charge(p, sim.Cycles(len(data))*fs.CopyByte)
	return len(data), nil
}

// Truncate implements vfs.FS.
func (fs *FS) Truncate(p *kernel.Process, id vfs.NodeID, size int64) error {
	fs.charge(p, fs.OpCPU)
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
	fs.charge(p, 3*fs.OpCPU)
	od, err := fs.dir(p, odir)
	if err != nil {
		return err
	}
	nd, err := fs.dir(p, ndir)
	if err != nil {
		return err
	}
	id, ok := od.children[oname]
	if !ok {
		return vfs.ErrNotExist
	}
	if existing, ok := nd.children[nname]; ok {
		if fs.nodes[existing].attr.Type == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		_ = fs.Unlink(p, ndir, nname)
	}
	delete(od.children, oname)
	nd.children[nname] = id
	fs.io.WriteBlock(p, vfs.BlockKey{Node: odir, Block: 0})
	fs.io.WriteBlock(p, vfs.BlockKey{Node: ndir, Block: 0})
	return nil
}

// Sync implements vfs.FS.
func (fs *FS) Sync(p *kernel.Process) error {
	fs.charge(p, fs.OpCPU)
	fs.io.Sync(p)
	return nil
}

// NodeCount reports the number of live inodes (root included).
func (fs *FS) NodeCount() int { return len(fs.nodes) }

var _ vfs.FS = (*FS)(nil)
