package main

import "sort"

// refJob is a fixed CPU job in plain Go that shares no code with the
// program under test: map probes, binary-tree searches, memmove and a
// sort over memory allocated once. The benchmark times it after every round. On a
// shared host the machine's speed drifts by tens of percent over
// minutes (a busy neighbour on the same core runs everything slower),
// and the job's CPU time drifts with it, so the end-to-end host times
// are reported scaled to the job's nominal time: raw × refNominalNs /
// median job time of the run. A change to the program moves the raw
// times and leaves the job alone, so it moves the scaled times by the
// same share.
type refJob struct {
	m       map[uint32]uint32
	tree    *refNode
	buf     []byte
	keys    []uint32
	scratch []uint32
}

type refNode struct {
	key         uint32
	left, right *refNode
}

// refNominalNs is the job's CPU time on a quiet host, in ns: the speed
// the scaled times are quoted at.
const refNominalNs = 10e6

func newRefJob() *refJob {
	j := &refJob{m: make(map[uint32]uint32, 8192), buf: make([]byte, 1<<20),
		keys: make([]uint32, 1<<15), scratch: make([]uint32, 1<<15)}
	r := newRNG(1, 1<<50)
	for i := range j.keys {
		j.keys[i] = uint32(r.next())
	}
	for _, k := range j.keys[:8192] {
		j.m[k&0xFFFF] = k
	}
	for _, k := range j.keys[:4096] {
		p := &j.tree
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: k}
	}
	return j
}

// run performs the job and returns its CPU time in ns.
func (j *refJob) run() int64 {
	start := cpuNow()
	var acc uint32
	for rep := 0; rep < 4; rep++ {
		for _, k := range j.keys {
			v, ok := j.m[k&0xFFFF]
			if ok {
				acc += v
			}
			j.m[k&0xFFFF] = v + k
		}
		for off := 0; off+4096 <= len(j.buf)/2; off += 4096 {
			copy(j.buf[len(j.buf)/2+off:], j.buf[off:off+4096])
		}
		for _, k := range j.keys[:1<<13] {
			for n := j.tree; n != nil && n.key != k; {
				if k < n.key {
					n = n.left
				} else {
					n = n.right
				}
				acc++
			}
		}
		copy(j.scratch, j.keys)
		sort.Slice(j.scratch[:4096], func(a, b int) bool { return j.scratch[a] < j.scratch[b] })
	}
	refSink += acc
	return cpuNow() - start
}

var refSink uint32
