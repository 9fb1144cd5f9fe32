package core

import (
	"fmt"
	"math"

	"rsu/internal/rng"
)

// BatchSampler extends LabelSampler with a fused entry point that draws new
// labels for a whole segment of independent random variables in one call —
// the software analogue of the RSU-G streaming its per-variable pipeline at
// device rate instead of paying a control-loop round trip per variable.
//
// The energy block is dense and strided: pixel i's candidate energies occupy
// energies[i*stride : (i+1)*stride], so stride is both the label count and
// the step between consecutive pixels. currents holds each pixel's current
// label (the keep-on-no-fire fallback) and out receives the drawn labels;
// both have one entry per pixel. currents and out may alias the same slice.
//
// Contract: SampleBatch must consume the RNG stream exactly as the
// equivalent loop of Sample calls in pixel order would — implementations
// fuse the per-call overhead (scratch sizing, validation, interface
// dispatch), never the draw order. The pixels must be mutually independent
// (in the MRF solver: one checkerboard color class), because every pixel's
// energies are fixed before the first draw.
type BatchSampler interface {
	LabelSampler
	SampleBatch(energies []float64, stride int, currents, out []int) error
}

// validateBatch checks the shared SampleBatch argument contract.
func validateBatch(energies []float64, stride int, currents, out []int) error {
	if stride <= 0 {
		return fmt.Errorf("core: SampleBatch stride must be positive, got %d", stride)
	}
	if len(out) != len(currents) {
		return fmt.Errorf("core: SampleBatch currents/out length mismatch (%d vs %d)", len(currents), len(out))
	}
	if len(energies) < len(currents)*stride {
		return fmt.Errorf("core: SampleBatch energy block holds %d floats, need %d (%d pixels x stride %d)",
			len(energies), len(currents)*stride, len(currents), stride)
	}
	return nil
}

// SampleBatch draws one label per pixel of an independent segment through
// the full RSU-G pipeline. Scratch sizing and argument validation are hoisted
// out of the pixel loop, so a steady-state batched sweep performs zero
// allocations; the per-pixel draw sequence is bit-identical to calling
// Sample(energies[i*stride:(i+1)*stride], currents[i]) in pixel order.
func (u *Unit) SampleBatch(energies []float64, stride int, currents, out []int) error {
	if err := validateBatch(energies, stride, currents, out); err != nil {
		return err
	}
	u.ensureScratch(stride)
	for i := range currents {
		base := i * stride
		out[i] = u.sampleOne(energies[base:base+stride:base+stride], currents[i])
	}
	return nil
}

// MinBatchSampler is a BatchSampler that also takes each pixel's minimum
// energy from the caller: the new RSU-G's energy stage finds E_min while the
// energies stream into the FIFO (paper Sec. IV-B), so selection never makes
// a second minimum pass. The tile engine's gather computes the minima and
// probes for this interface once per tile, as it probes for BatchSampler.
//
// mins[i] must be the smallest of pixel i's energies, or −Inf when any of
// them is NaN. SampleBatchMin consumes the RNG stream, and moves every
// counter, exactly as SampleBatch does on the same block.
type MinBatchSampler interface {
	BatchSampler
	SampleBatchMin(energies, mins []float64, stride int, currents, out []int) error
}

// SampleBatchMin is SampleBatch with the minima supplied. Units that draw
// through the cut-off-aware kernel take its supplied-minimum case; every
// other unit (a FaultInjector attached, a boundary converter, continuous
// time) ignores the minima and runs SampleBatch.
func (u *Unit) SampleBatchMin(energies, mins []float64, stride int, currents, out []int) error {
	if !u.liveKernel() {
		return u.SampleBatch(energies, stride, currents, out)
	}
	if err := validateBatch(energies, stride, currents, out); err != nil {
		return err
	}
	if len(mins) < len(currents) {
		return fmt.Errorf("core: SampleBatchMin has %d minima for %d pixels", len(mins), len(currents))
	}
	u.ensureScratch(stride)
	u.stats.Evaluations += len(currents)
	u.stats.LabelEvals += len(currents) * stride
	for i := range currents {
		base := i * stride
		out[i] = u.sampleLive(energies[base:base+stride:base+stride], currents[i], mins[i], true)
	}
	return nil
}

// SampleBatch is the software baseline's batched entry point: the Boltzmann
// weights buffer is sized once per segment and each pixel performs exactly
// the draws Sample would (one categorical draw per pixel).
func (s *SoftwareSampler) SampleBatch(energies []float64, stride int, currents, out []int) error {
	if err := validateBatch(energies, stride, currents, out); err != nil {
		return err
	}
	if cap(s.buf) < stride {
		s.buf = make([]float64, stride)
	}
	w := s.buf[:stride]
	for i := range currents {
		vec := energies[i*stride : (i+1)*stride]
		min := vec[0]
		for _, e := range vec[1:] {
			if e < min {
				min = e
			}
		}
		for j, e := range vec {
			w[j] = math.Exp(-(e - min) / s.T)
		}
		out[i] = rng.Categorical(s.src, w)
	}
	return nil
}

// batchAdapter lifts a plain LabelSampler into the BatchSampler contract by
// looping Sample — no fusion, but the same draw order, so solvers can run
// every sampler through the batched path.
type batchAdapter struct {
	LabelSampler
}

func (a batchAdapter) SampleBatch(energies []float64, stride int, currents, out []int) error {
	if err := validateBatch(energies, stride, currents, out); err != nil {
		return err
	}
	for i := range currents {
		l, err := a.Sample(energies[i*stride:(i+1)*stride], currents[i])
		if err != nil {
			return fmt.Errorf("core: batch pixel %d: %w", i, err)
		}
		out[i] = l
	}
	return nil
}

// AsBatch returns s itself when it already implements BatchSampler (Unit and
// SoftwareSampler do) and otherwise wraps it in the Sample-looping adapter.
// Either way the returned sampler consumes the RNG stream exactly as
// per-pixel Sample calls would.
func AsBatch(s LabelSampler) BatchSampler {
	if b, ok := s.(BatchSampler); ok {
		return b
	}
	return batchAdapter{s}
}

var (
	_ MinBatchSampler = (*Unit)(nil)
	_ BatchSampler    = (*SoftwareSampler)(nil)
)
