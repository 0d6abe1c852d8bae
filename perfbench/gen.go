package main

import (
	"encoding/binary"
	"strconv"
)

// rng is splitmix64: the benchmark's own seeded generator, so every op
// stream depends only on --seed and never on the simulator's RNG.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// deck returns n flags, exactly pct% of them true, in a seeded order.
// Op mixes are dealt from decks rather than drawn one by one, so every
// seed runs the same amount of each kind of work.
func (r *rng) deck(n, pct int) []bool {
	d := make([]bool, n)
	for i := 0; i < n*pct/100; i++ {
		d[i] = true
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		d[i], d[j] = d[j], d[i]
	}
	return d
}

// poolSize is the size of the seeded byte pool every written payload is
// cut from; the reference models store (offset, length) extents into it.
const poolSize = 64 << 10

func makePool(seed uint64) []byte {
	r := newRNG(seed, 1<<40)
	pool := make([]byte, poolSize)
	for i := 0; i < poolSize; i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], r.next())
	}
	return pool
}

// extent is a run of pool bytes: [off, off+n).
type extent struct{ off, n int32 }

// ---- smallfile: PostMark's transaction mix ----

// sfConfig sizes the smallfile stream of one client.
type sfConfig struct {
	initial              int // files created at populate
	txns                 int // transactions per round
	minSize, maxSize     int // created file sizes
	appendMin, appendMax int
	readPct, createPct   int // PostMark's read and create biases
}

// sfTxn is one PostMark transaction: read or append an existing file,
// then create a new file or delete an existing one.
type sfTxn struct {
	target     string // file read or appended ("" when no file exists)
	read       bool
	data       extent // append payload
	create     bool
	name       string // created file, or the victim of the delete
	createData extent
}

// sfStream is one client's pregenerated input: the populate set and the
// transactions, both functions of (seed, client) alone.
type sfStream struct {
	dir     string
	initial []string
	initExt []extent
	txns    []sfTxn
}

func poolExtent(r *rng, lo, hi int) extent {
	n := r.between(lo, hi)
	return extent{off: int32(r.intn(poolSize - n + 1)), n: int32(n)}
}

// genSmallfile builds client c's stream. Choices are made against the
// generator's own list of live files, so every generated op is valid.
// Reads and creates are dealt from decks, so the live file count — and
// with it the working set against the buffer cache — ends the same for
// every seed.
func genSmallfile(seed uint64, c int, cfg sfConfig) *sfStream {
	r := newRNG(seed, uint64(c))
	st := &sfStream{dir: "/b/c" + strconv.Itoa(c)}
	next := 0
	newName := func() string {
		next++
		return st.dir + "/f" + strconv.Itoa(next-1)
	}
	var live []string
	for i := 0; i < cfg.initial; i++ {
		name := newName()
		st.initial = append(st.initial, name)
		st.initExt = append(st.initExt, poolExtent(r, cfg.minSize, cfg.maxSize))
		live = append(live, name)
	}
	st.txns = make([]sfTxn, cfg.txns)
	reads, creates := r.deck(cfg.txns, cfg.readPct), r.deck(cfg.txns, cfg.createPct)
	for i := range st.txns {
		tx := &st.txns[i]
		if len(live) > 0 {
			tx.target = live[r.intn(len(live))]
			tx.read = reads[i]
			if !tx.read {
				tx.data = poolExtent(r, cfg.appendMin, cfg.appendMax)
			}
		}
		tx.create = creates[i] || len(live) == 0
		if tx.create {
			tx.name = newName()
			tx.createData = poolExtent(r, cfg.minSize, cfg.maxSize)
			live = append(live, tx.name)
		} else {
			v := r.intn(len(live))
			tx.name = live[v]
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return st
}

// ---- table: ingest, anycall scans and Cosy point lookups ----

// tblConfig sizes the table stream.
type tblConfig struct {
	tables    int
	initial   int // records per table at populate
	requests  int // requests per round
	batch     int // records per ingest ring_enter
	window    int // records per anycall scan
	ingestPct int
	scanPct   int // the rest are lookups
}

// recSize is the table record size in bytes.
const recSize = 256

type reqKind uint8

const (
	reqIngest reqKind = iota
	reqScan
	reqLookup
)

// tblReq is one database request. For an ingest, rec is the first
// appended record number; for a scan, the first record scanned (scans
// walk each table a full window at a time, wrapping before its end);
// for a lookup, the record read.
type tblReq struct {
	kind  reqKind
	table int
	rec   int
	n     int
}

// genTable builds the table stream: a closed loop of requests chosen
// against the generator's own record counts. The kinds are dealt from
// decks, and ingests and scans visit the tables in turn, so every seed
// grows the tables to the same sizes; the seed orders the requests and
// picks the lookups.
func genTable(seed uint64, cfg tblConfig) []tblReq {
	r := newRNG(seed, 1<<20)
	nrec := make([]int, cfg.tables)
	scan := make([]int, cfg.tables)
	for t := range nrec {
		nrec[t] = cfg.initial
	}
	ingests := r.deck(cfg.requests, cfg.ingestPct)
	// Scans are dealt among the requests that are not ingests.
	others := cfg.requests - cfg.requests*cfg.ingestPct/100
	scans := r.deck(others, cfg.scanPct*100/(100-cfg.ingestPct))
	reqs := make([]tblReq, cfg.requests)
	nIngest, nScan, nOther := 0, 0, 0
	for i := range reqs {
		var q tblReq
		switch {
		case ingests[i]:
			t := nIngest % cfg.tables
			nIngest++
			q = tblReq{kind: reqIngest, table: t, rec: nrec[t], n: cfg.batch}
			nrec[t] += cfg.batch
		case scans[nOther]:
			nOther++
			t := nScan % cfg.tables
			nScan++
			if scan[t]+cfg.window > nrec[t] {
				scan[t] = 0
			}
			q = tblReq{kind: reqScan, table: t, rec: scan[t], n: cfg.window}
			scan[t] += cfg.window
		default:
			nOther++
			t := r.intn(cfg.tables)
			q = tblReq{kind: reqLookup, table: t, rec: r.intn(nrec[t])}
		}
		reqs[i] = q
	}
	return reqs
}

// record writes table t's record r into dst (recSize bytes): an 8-byte
// header naming the record, then pool bytes chosen by the record id.
func record(pool []byte, t, r int, dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(t))
	binary.LittleEndian.PutUint32(dst[4:], uint32(r))
	h := uint64(t)<<32 | uint64(r)
	h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9
	off := int(h % uint64(poolSize-recSize))
	copy(dst[8:recSize], pool[off:])
}
