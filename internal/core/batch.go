package core

import (
	"fmt"
	"math"

	"rsu/internal/quant"
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

// LiveCodeSampler is a sampler that takes each pixel's live labels from the
// caller as 8-bit energy codes: the entry for a gather that finds the live
// set itself (the tile engine's windowed code gather, DESIGN.md §15). The
// tile engine probes for it once per tile, as it probes for
// MinBatchSampler.
type LiveCodeSampler interface {
	// LiveCut returns the unit's cut-off at its present temperature, which
	// holds until the temperature changes. ok is false when the unit does
	// not draw through the cut-off-aware kernel (a FaultInjector attached,
	// a boundary converter, continuous time, a LUT with interior zeros) or
	// its codes do not fit in 8 bits; the caller then keeps SampleBatchMin.
	LiveCut() (cut LiveCut, ok bool)
	// SampleLiveCodes draws one label per pixel from its live candidates.
	// Pixel i's candidates are labels[ends[i-1]:ends[i]] (from 0 for pixel
	// 0) in increasing label order, codes holds their energy codes (a code
	// above the maximum reads as the maximum), mins[i] is the pixel's
	// smallest energy code and stride its label count. Every candidate must
	// be live, code ≤ LiveCut().Limit(mins[i]), and every live label a
	// candidate. It consumes the RNG stream, and moves every counter,
	// exactly as SampleBatchMin does on the pixels' dense energy block.
	SampleLiveCodes(labels []int32, codes []uint8, ends []int32, mins []uint8, stride int, currents, out []int) error
}

// LiveCut is a unit's probability cut-off on energy codes: K is its LUT's
// cut index, MaxCode its quantizer's maximum code, and Scales whether it
// subtracts the minimum code before the LUT (decay-rate scaling).
type LiveCut struct {
	K, MaxCode int
	Scales     bool
}

// Limit returns the largest energy code that can still fire when a pixel's
// smallest energy code is min ≥ 0: min+K−1 under decay-rate scaling and
// K−1 without, or 255 when every code up to MaxCode can fire. A min above
// MaxCode reads as MaxCode.
func (c LiveCut) Limit(min int) int {
	if !c.Scales {
		min = 0
	}
	if limit := quant.ClampInt(min, 0, c.MaxCode) + c.K - 1; limit < c.MaxCode {
		return limit
	}
	return 255
}

// LiveCut implements LiveCodeSampler.
func (u *Unit) LiveCut() (LiveCut, bool) {
	if !u.liveKernel() || u.emaxCode > 255 {
		return LiveCut{}, false
	}
	return LiveCut{K: u.lutCut, MaxCode: u.emaxCode, Scales: u.cfg.scalesEnergy()}, true
}

// SampleLiveCodes implements LiveCodeSampler. Each candidate converts and
// draws what sampleLive draws for it, in label order, and the cut-off
// labels draw nothing, so the race, the RNG stream and every Stats counter
// match SampleBatchMin.
func (u *Unit) SampleLiveCodes(labels []int32, codes []uint8, ends []int32, mins []uint8, stride int, currents, out []int) error {
	if _, ok := u.LiveCut(); !ok {
		return fmt.Errorf("core: SampleLiveCodes needs the cut-off-aware kernel with at most 8-bit energy codes")
	}
	switch {
	case stride <= 0:
		return fmt.Errorf("core: SampleLiveCodes stride must be positive, got %d", stride)
	case len(out) != len(currents) || len(ends) < len(currents) || len(mins) < len(currents):
		return fmt.Errorf("core: SampleLiveCodes has %d currents, %d outputs, %d ends and %d minima", len(currents), len(out), len(ends), len(mins))
	case len(codes) != len(labels):
		return fmt.Errorf("core: SampleLiveCodes has %d codes for %d labels", len(codes), len(labels))
	}
	u.ensureScratch(stride)
	u.stats.Evaluations += len(currents)
	u.stats.LabelEvals += len(currents) * stride
	scales, maxCode, lt := u.cfg.scalesEnergy(), u.emaxCode, u.lutTable
	start := 0
	for i := range currents {
		end := int(ends[i])
		if end < start || end > len(labels) || end-start > stride {
			return fmt.Errorf("core: SampleLiveCodes pixel %d candidates [%d, %d) out of range", i, start, end)
		}
		min := 0
		if scales {
			min = quant.ClampInt(int(mins[i]), 0, maxCode)
		}
		r := race{bin: math.MaxInt, tied: u.tiedBuf[:0]}
		for k := start; k < end; k++ {
			idx := quant.ClampInt(int(codes[k]), 0, maxCode) - min
			if uint(idx) >= uint(u.lutCut) {
				return fmt.Errorf("core: SampleLiveCodes pixel %d label %d: code %d is not live above minimum %d", i, labels[k], codes[k], min)
			}
			if b := u.liveBin(lt[idx]); b != 0 {
				r.fire(int(labels[k]), b)
			}
		}
		u.stats.Cutoffs += stride - (end - start)
		out[i] = u.settle(&r, currents[i])
		start = end
	}
	return nil
}

// liveBin is the draw of one live label of decay-rate code c, for
// sampleLive and SampleLiveCodes alike: drawBinCode, inlined on the
// devirtualized xoshiro source when there is one (the same uniform, guided
// scan and bin), and 0 when the label does not fire.
func (u *Unit) liveBin(c int) int {
	x := u.srcX
	if x == nil || c >= len(u.surv) || u.surv[c] == nil {
		return u.drawBinCode(c)
	}
	s, g := u.surv[c], u.guide[c]
	var v float64
	for {
		v = float64(x.Uint64()>>11) / (1 << 53)
		if v > 0 {
			break
		}
	}
	b := int(g[int(v*(1<<guideBits))])
	for b < len(s) && v < s[b] {
		b++
	}
	if b == len(s) {
		u.stats.Truncated++
		return 0
	}
	return b
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
	_ LiveCodeSampler = (*Unit)(nil)
	_ BatchSampler    = (*SoftwareSampler)(nil)
)
