package uq

import (
	"fmt"

	"rsu/internal/wire"
)

// CaptureState serializes the accumulator — shape, resolved options, sample
// count and every per-pixel label count — as an opaque blob for the
// checkpoint subsystem (it satisfies the collector half of
// mrf.StatefulCollector). A resumed accumulator therefore reports the same
// marginals and sample counts as one that observed the whole run. The word
// after the sample count is reserved and written as 0: measured time stays
// out of the state, so two identical runs write identical snapshots, and
// CollectSeconds after a resume covers the resumed segment only.
func (a *Accumulator) CaptureState() ([]byte, error) {
	b := make([]byte, 0, 64+4*len(a.counts))
	b = wire.AppendI64(b, int64(a.w))
	b = wire.AppendI64(b, int64(a.h))
	b = wire.AppendI64(b, int64(a.labels))
	b = wire.AppendI64(b, int64(a.opts.BurnIn))
	b = wire.AppendI64(b, int64(a.opts.Thin))
	b = wire.AppendI64(b, int64(a.samples))
	b = wire.AppendI64(b, 0) // reserved; older snapshots hold collect time here
	b = wire.AppendU64(b, uint64(len(a.counts)))
	for _, c := range a.counts {
		b = wire.AppendU32(b, c)
	}
	return b, nil
}

// RestoreState overwrites the accumulator from a CaptureState blob. The
// accumulator must have been built with the same shape and resolved options
// as the captured one; any mismatch is rejected and leaves it unchanged. The
// reserved word is validated but not restored, so older snapshots, which
// hold collect time there, still decode and the accumulator times only its
// own Collect calls.
func (a *Accumulator) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	w, h, labels := r.I64(), r.I64(), r.I64()
	burnIn, thin := r.I64(), r.I64()
	samples := r.I64()
	elapsed := r.I64()
	n := r.Count(4)
	counts := make([]uint32, n)
	for i := range counts {
		counts[i] = r.U32()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("uq: corrupt accumulator state: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("uq: %d trailing bytes after accumulator state", r.Len())
	}
	switch {
	case int(w) != a.w || int(h) != a.h || int(labels) != a.labels:
		return fmt.Errorf("uq: state shape %dx%dx%d does not match accumulator %dx%dx%d",
			w, h, labels, a.w, a.h, a.labels)
	case int(burnIn) != a.opts.BurnIn || int(thin) != a.opts.Thin:
		return fmt.Errorf("uq: state options (burn-in %d, thin %d) do not match accumulator (%d, %d)",
			burnIn, thin, a.opts.BurnIn, a.opts.Thin)
	case samples < 0 || elapsed < 0:
		return fmt.Errorf("uq: negative sample count %d or elapsed %d", samples, elapsed)
	case n != len(a.counts):
		return fmt.Errorf("uq: state has %d counts, accumulator has %d", n, len(a.counts))
	}
	copy(a.counts, counts)
	a.samples = int(samples)
	return nil
}
