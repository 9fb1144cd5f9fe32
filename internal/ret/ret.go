// Package ret models the molecular-optical device layer of the RSU-G: RET
// networks whose fluorescence decay rate is set by chromophore concentration
// and excitation intensity, QDLED light sources, SPAD detectors with dark
// counts, and the replica scheduling that prevents residual excitation from
// one sample bleeding into a later one (Secs. II-B, IV-B-4..6).
//
// Time is discrete in fine "time bins" — the RSU-G's finest timing
// resolution (125 ps for the paper's 1 GHz clock with an 8x multiplier).
// A detection window spans 2^Time_bits bins.
package ret

import (
	"fmt"
	"math"

	"rsu/internal/rng"
)

// Network is one RET network ensemble. Its exponential decay rate is
// Concentration x (excitation intensity) x (base rate per bin). A network
// excited at time t emits a photon at t + Exp(rate); if the emission is not
// observed within its detection window the network stays excited and can
// contaminate a later sample (bleed-through).
type Network struct {
	// Concentration is the chromophore concentration relative to the
	// lambda_0 ensemble (1, 2, 4, 8 in the new design).
	Concentration float64
	// BleachPerExcitation is the fraction of quantum yield lost per
	// excitation (photo-bleaching, Sec. IV-D). Zero models the mitigated
	// device (core-shell dye encapsulation); positive values let the
	// bleaching experiment quantify decay-rate drift.
	BleachPerExcitation float64
	// yield is the surviving quantum-yield fraction (starts at 1).
	yield float64
	// excitations counts Excite calls (exposure bookkeeping).
	excitations int64
	// pending is the absolute bin time of the next emission, or -1.
	pending int64
}

// NewNetwork returns an idle network with the given relative concentration.
func NewNetwork(concentration float64) *Network {
	if concentration <= 0 {
		panic("ret: concentration must be positive")
	}
	return &Network{Concentration: concentration, yield: 1, pending: -1}
}

// Yield returns the surviving quantum-yield fraction in (0, 1].
func (n *Network) Yield() float64 { return n.yield }

// Excitations returns how many times the network has been illuminated.
func (n *Network) Excitations() int64 { return n.excitations }

// Refresh restores full quantum yield, modeling replacement of the RET
// circuit's molecular layer (the photo-bleaching mitigation path).
func (n *Network) Refresh() { n.yield = 1 }

// Excite illuminates the network at absolute time now with the given
// intensity (relative to the base QDLED drive) and base rate (lambda_0 per
// bin). If a previous emission is still pending, the earlier of the two
// emission times survives — the residual excited chromophores are still
// there and will fire on their own schedule.
func (n *Network) Excite(now int64, intensity, baseRate float64, src rng.Source) {
	rate := n.Concentration * intensity * baseRate * n.yield
	if rate <= 0 {
		panic("ret: excitation rate must be positive")
	}
	n.excitations++
	if n.BleachPerExcitation > 0 {
		n.yield *= 1 - n.BleachPerExcitation
	}
	if n.pending >= 0 && n.pending < now {
		// The previous photon escaped between windows; the network relaxed.
		n.pending = -1
	}
	t := now + int64(math.Ceil(rng.Exponential(src, rate)))
	if t <= now {
		t = now + 1
	}
	if n.pending < 0 || t < n.pending {
		n.pending = t
	}
}

// Emission consumes and returns the pending emission if it falls in
// [from, to]; emissions earlier than from are stale photons that already
// escaped and are dropped. Returns (time, true) on a hit.
func (n *Network) Emission(from, to int64) (int64, bool) {
	if n.pending < 0 {
		return 0, false
	}
	if n.pending < from {
		n.pending = -1 // photon left before the window opened
		return 0, false
	}
	if n.pending > to {
		return 0, false // still excited; may bleed into a later window
	}
	t := n.pending
	n.pending = -1
	return t, true
}

// Excited reports whether an emission is still pending at time now.
func (n *Network) Excited(now int64) bool { return n.pending >= now }

// NetworkState is the mutable part of a Network, exported for checkpointing.
// Concentration and BleachPerExcitation are configuration, not state: a
// restored network must be rebuilt with the same constructor parameters.
type NetworkState struct {
	// Yield is the surviving quantum-yield fraction in (0, 1].
	Yield float64
	// Excitations is the Excite-call count.
	Excitations int64
	// Pending is the absolute bin time of the next emission, or -1.
	Pending int64
}

// State captures the network's mutable state for checkpointing.
func (n *Network) State() NetworkState {
	return NetworkState{Yield: n.yield, Excitations: n.excitations, Pending: n.pending}
}

// RestoreState overwrites the network's mutable state from a capture. The
// restored network behaves bit-identically to the captured one from this
// point on (its randomness comes from the caller-supplied source).
func (n *Network) RestoreState(s NetworkState) error {
	if !(s.Yield > 0 && s.Yield <= 1) {
		return fmt.Errorf("ret: restored yield %v outside (0,1]", s.Yield)
	}
	if s.Excitations < 0 {
		return fmt.Errorf("ret: restored excitation count %d is negative", s.Excitations)
	}
	if s.Pending < -1 {
		return fmt.Errorf("ret: restored pending time %d is invalid", s.Pending)
	}
	n.yield, n.excitations, n.pending = s.Yield, s.Excitations, s.Pending
	return nil
}

// Reset clears any pending emission (photo-bleaching mitigation / recovery
// periods in test harnesses).
func (n *Network) Reset() { n.pending = -1 }

// SPAD is a single-photon avalanche detector with a dark-count process.
// Dark counts at the paper's cited kHz rates are ~1e-6 per nanosecond and
// thus negligible against the 1 GHz sampling (Sec. II-B); the model includes
// them so that claim is checkable.
type SPAD struct {
	// DarkCountPerBin is the dark-count probability rate per fine time bin.
	DarkCountPerBin float64
}

// Detect merges a (possibly absent) photon arrival with the dark-count
// process over the window [from, to], returning the first event time.
//
// Tie policy: a dark count landing in the same bin as the photon resolves in
// the photon's favor — the avalanche the photon triggers quenches the diode
// for the rest of the bin, so a simultaneous thermal event is absorbed into
// the same detection. Concretely, the dark count replaces the photon only
// when it strictly precedes it (d < photon), and the dark-count delay is
// clamped to at least one whole bin past `from`: the exponential delay is
// "first dark event after the window opens", so the earliest bin it can
// quantize into is from+1, never from itself.
func (s SPAD) Detect(photon int64, hasPhoton bool, from, to int64, src rng.Source) (int64, bool) {
	first := int64(math.MaxInt64)
	ok := false
	if hasPhoton && photon >= from && photon <= to {
		first = photon
		ok = true
	}
	if s.DarkCountPerBin > 0 {
		t := rng.Exponential(src, s.DarkCountPerBin)
		// Bound the delay in float space before the int conversion: at the
		// paper's kHz dark rates (1e-6/bin and below) an unlucky draw can
		// exceed int64 range, and the overflowed conversion used to wrap to
		// a negative time that counted as an in-window event.
		if t <= float64(to-from) {
			delay := int64(math.Ceil(t))
			if delay < 1 {
				delay = 1 // >= one bin past the window opening (see tie policy)
			}
			if d := from + delay; d <= to && d < first {
				first = d
				ok = true
			}
		}
	}
	if !ok {
		return 0, false
	}
	return first, true
}

// CircuitConfig describes a RET circuit bank.
type CircuitConfig struct {
	// Rows is the number of replica rows (waveguides), each with its own
	// QDLED. The new design uses 8 (Truncation 0.5 -> 0.5^8 < 0.4%
	// residual); the previous design used 4 single-network circuits.
	Rows int
	// Concentrations lists the per-row network concentrations (one network
	// per entry, sharing the row's waveguide). The new design uses
	// {1, 2, 4, 8}; the previous intensity-based design uses {1}.
	Concentrations []float64
	// Intensities lists the supported QDLED drive levels, indexed by
	// intensity code - 1. The new design has a single level; the previous
	// design modulated intensity to set the decay rate.
	Intensities []float64
	// WindowBins is the detection window length (2^Time_bits).
	WindowBins int64
	// BaseRate is lambda_0 per time bin.
	BaseRate float64
	// SPAD configures the detectors (one per network).
	SPAD SPAD
	// BleachPerExcitation propagates to every network (see Network).
	BleachPerExcitation float64
}

// NewDesignCircuit returns the paper's new RSU-G RET circuit: 8 rows x 4
// concentrations, single intensity, 32-bin window, truncation 0.5.
func NewDesignCircuit() CircuitConfig {
	return CircuitConfig{
		Rows:           8,
		Concentrations: []float64{1, 2, 4, 8},
		Intensities:    []float64{1},
		WindowBins:     32,
		BaseRate:       math.Ln2 / 32, // Truncation 0.5 over 32 bins
	}
}

// PrevDesignCircuit returns the previous RSU-G RET circuit: 4 replicated
// circuits of one network each, 16 intensity levels, truncation 0.004.
func PrevDesignCircuit() CircuitConfig {
	cfg := CircuitConfig{
		Rows:           4,
		Concentrations: []float64{1},
		WindowBins:     32,
		BaseRate:       -math.Log(0.004) / 32,
	}
	// Intensity code i drives the single network at i x lambda_0; the
	// truncation target is defined at the lowest intensity (code 1).
	cfg.Intensities = make([]float64, 16)
	for i := range cfg.Intensities {
		cfg.Intensities[i] = float64(i + 1)
	}
	return cfg
}

// Validate reports configuration errors.
func (c CircuitConfig) Validate() error {
	switch {
	case c.Rows < 1:
		return fmt.Errorf("ret: need at least one row")
	case len(c.Concentrations) == 0:
		return fmt.Errorf("ret: need at least one concentration")
	case len(c.Intensities) == 0:
		return fmt.Errorf("ret: need at least one intensity")
	case c.WindowBins < 1:
		return fmt.Errorf("ret: window must be at least one bin")
	case c.BaseRate <= 0:
		return fmt.Errorf("ret: base rate must be positive")
	}
	return nil
}
