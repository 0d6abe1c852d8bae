package workload

import (
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/kring"
	"repro/internal/sys"
)

// cosyRun maps a fresh shm sized for the encoded compound raw and
// runs raw on it in one crossing. A non-empty op makes the run one
// traced request, opened after the mapping; pre, when set, runs inside
// that request just before the crossing.
func cosyRun(pr *sys.Proc, e *kext.Engine, raw []byte, op string, pre func() error) (int64, error) {
	c, err := lang.Decode(raw)
	if err != nil {
		return 0, err
	}
	shm, err := e.NewShm(c.ShmSize)
	if err != nil {
		return 0, err
	}
	if op != "" {
		pr.K.Ktrace.BeginOp(pr.P.PID, op)
		defer pr.K.Ktrace.EndOp(pr.P.PID)
	}
	if pre != nil {
		if err := pre(); err != nil {
			return 0, err
		}
	}
	return e.ExecRing(pr, raw, shm)
}

// ringSize clamps the geometry of a ring for batch submissions to the
// kernel's limits: batch rounded up to a power of two, at least
// minEntries (itself a power of two) and at most kring.MaxEntries,
// and a data area of at most sys.MaxRingData bytes.
func ringSize(batch, minEntries, dataBytes int) (entries, data int) {
	entries = minEntries
	for entries < batch {
		entries *= 2
	}
	return min(entries, kring.MaxEntries), min(dataBytes, sys.MaxRingData)
}

// ringEnter drains the staged SQEs in one crossing, traced as one op
// request, and hands every completion to fn. It fails on the first
// completion that carries a host error. It returns the number of
// completions.
func ringEnter(pr *sys.Proc, h *sys.RingHandle, op string, fn func(kring.CQE)) (int64, error) {
	pr.K.Ktrace.BeginOp(pr.P.PID, op)
	n, err := h.Enter()
	pr.K.Ktrace.EndOp(pr.P.PID)
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < n; i++ {
		cqe, herr, err := h.Pop()
		if err != nil {
			return n, err
		}
		if herr != nil {
			return n, herr
		}
		fn(cqe)
	}
	return n, nil
}
