package kefence

// htab is the open-addressing hash table the paper adds to speed up
// vfree: "to speed up the default vfree function we have added a hash
// table to store the information about virtual memory buffers"
// (§3.2). Keys are page-aligned addresses; linear probing with
// tombstones.
type htab struct {
	keys  []uint64
	vals  []*allocation
	state []uint8 // 0 empty, 1 full, 2 tombstone
	n     int
}

func newHtab() *htab {
	const initial = 64
	return &htab{
		keys:  make([]uint64, initial),
		vals:  make([]*allocation, initial),
		state: make([]uint8, initial),
	}
}

func (h *htab) hash(k uint64) int {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return int(k & uint64(len(h.keys)-1))
}

func (h *htab) grow() {
	old := *h
	size := len(h.keys) * 2
	h.keys = make([]uint64, size)
	h.vals = make([]*allocation, size)
	h.state = make([]uint8, size)
	h.n = 0
	for i, s := range old.state {
		if s == 1 {
			h.put(old.keys[i], old.vals[i])
		}
	}
}

func (h *htab) put(k uint64, v *allocation) {
	if h.n*2 >= len(h.keys) {
		h.grow()
	}
	// k may sit further along its chain, past a tombstone: look there
	// before reusing the first free slot, or k would be stored twice.
	i, slot := h.hash(k), -1
	for probes := 0; probes < len(h.keys) && h.state[i] != 0; probes++ {
		switch {
		case h.state[i] == 2:
			if slot < 0 {
				slot = i
			}
		case h.keys[i] == k:
			h.vals[i] = v
			return
		}
		i = (i + 1) & (len(h.keys) - 1)
	}
	if slot < 0 {
		slot = i
	}
	h.keys[slot] = k
	h.vals[slot] = v
	h.state[slot] = 1
	h.n++
}

func (h *htab) get(k uint64) (*allocation, bool) {
	i := h.hash(k)
	for probes := 0; probes < len(h.keys); probes++ {
		switch h.state[i] {
		case 0:
			return nil, false
		case 1:
			if h.keys[i] == k {
				return h.vals[i], true
			}
		}
		i = (i + 1) & (len(h.keys) - 1)
	}
	return nil, false
}

func (h *htab) del(k uint64) bool {
	i := h.hash(k)
	for probes := 0; probes < len(h.keys); probes++ {
		switch h.state[i] {
		case 0:
			return false
		case 1:
			if h.keys[i] == k {
				h.state[i] = 2
				h.vals[i] = nil
				h.n--
				return true
			}
		}
		i = (i + 1) & (len(h.keys) - 1)
	}
	return false
}

func (h *htab) len() int { return h.n }
