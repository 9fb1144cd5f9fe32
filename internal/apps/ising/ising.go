// Package ising runs the two-dimensional Ising model — the canonical
// Boltzmann-machine / probabilistic-cellular-automaton workload the paper's
// introduction motivates — on the same MRF + LabelSampler machinery as the
// vision applications. The model's exactly known critical temperature
// (Tc = 2J / ln(1 + sqrt 2) ≈ 2.269 J) gives a physics-grade acceptance
// test for the RSU-G: a sampler with broken conditional distributions
// shifts or destroys the magnetization transition.
package ising

import (
	"fmt"
	"math"

	"rsu/internal/apps"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/wire"
)

// CriticalTemperature is Onsager's exact Tc for the square-lattice Ising
// model, in units of the coupling J.
const CriticalTemperature = 2.269185314213022

// Model is a square-lattice Ising instance. Labels {0,1} encode spins
// {-1,+1}. Site energies are offset by +4J+|h| so they stay non-negative
// for the RSU-G's unsigned 8-bit energy datapath; the offset cancels in
// every conditional distribution.
type Model struct {
	// N is the lattice side length (N x N spins, free boundaries).
	N int
	// J is the ferromagnetic coupling in 8-bit energy units. With J = 16
	// the conditional energies span [0, 128], comfortably inside the
	// quantizer's range.
	J float64
	// H is the external field in the same units.
	H float64
	// Options are the run options every app shares (see apps.Options).
	// Checkerboard sweeps are the classic parallel heat-bath dynamics for
	// the Ising model: one color class has no couplings within itself, so
	// the stationary distribution is untouched, and sharded sweeps keep it
	// by exchanging halos at every color-phase barrier. Run measures its
	// observables through its own collector, so it rejects UQ; its fault
	// report never sets the UQ-based Degraded flag.
	apps.Options
}

// DefaultModel returns a 32x32 lattice with J = 16, h = 0.
func DefaultModel() Model { return Model{N: 32, J: 16, H: 0} }

// Validate reports parameter errors.
func (m Model) Validate() error {
	if m.N < 4 {
		return fmt.Errorf("ising: lattice side %d too small", m.N)
	}
	if m.J <= 0 {
		return fmt.Errorf("ising: coupling must be positive")
	}
	if off := 4*m.J + math.Abs(m.H); off+4*m.J+math.Abs(m.H) > 255 {
		return fmt.Errorf("ising: energies exceed the 8-bit range (J too large)")
	}
	return nil
}

func spin(label int) float64 {
	if label == 1 {
		return 1
	}
	return -1
}

// Problem builds the MRF whose Gibbs dynamics are exactly the single-spin
// heat-bath updates of the Ising model.
func (m Model) Problem() *mrf.Problem {
	offset := 4*m.J + math.Abs(m.H)
	return &mrf.Problem{
		W: m.N, H: m.N, Labels: 2,
		// The field term lives in the singleton; the coupling in PairDist.
		Singleton: func(x, y, l int) float64 {
			return offset - m.H*spin(l)
		},
		PairWeight: 1,
		PairDist: func(a, b int) float64 {
			// -J s_a s_b, shifted by +J so the distance is non-negative
			// (0 for aligned, 2J for opposed); the shift is constant per
			// edge and cancels in the conditionals.
			return m.J * (1 - spin(a)*spin(b))
		},
		Dist: mrf.Binary, // unused (PairDist overrides); set for validity
	}
}

// Observables are the per-measurement lattice statistics.
type Observables struct {
	// Magnetization is <|m|>, the absolute magnetization per spin.
	Magnetization float64
	// Energy is the coupling energy per spin, in units of J (in [-2, 0]
	// for h = 0 with free boundaries).
	Energy float64
	// Faults summarizes the injected device faults when Model.Faults
	// requested injection; nil otherwise.
	Faults *fault.Report
}

// Run performs `burn` discard sweeps and `measure` measured sweeps of
// heat-bath dynamics at temperature T (in units of J), returning the
// averaged observables. The sampler's own temperature is set to T*J to
// match the 8-bit energy scale.
func (m Model) Run(s core.LabelSampler, T float64, burn, measure int, seed uint64) (Observables, error) {
	if err := m.Validate(); err != nil {
		return Observables{}, err
	}
	if T <= 0 || burn < 0 || measure < 1 {
		return Observables{}, fmt.Errorf("ising: need T > 0, burn >= 0, measure >= 1")
	}
	prob := m.Problem()
	// Ordered (all-up) start: below Tc a hot start coarsens into domains
	// for O(N^2) sweeps before ordering, while the ordered start
	// equilibrates quickly at every temperature (it melts in a few sweeps
	// above Tc). We report |m|, so the chosen phase does not bias the
	// observable. The seed jitters a small fraction of spins so repeated
	// runs decorrelate.
	init := img.NewLabels(m.N, m.N).Fill(1)
	src := rng.NewXoshiro256(seed)
	for i := 0; i < m.N; i++ {
		init.L[int(src.Uint64()%uint64(m.N*m.N))] = 0
	}
	// Measurement runs as a stateful collector so a checkpointed run carries
	// its partial sums: a resume continues the observable accumulation
	// exactly where the snapshot left it.
	acc := &measureAcc{model: m, burn: burn}
	sched := mrf.Schedule{T0: T * m.J, Alpha: 1, Iterations: burn + measure}
	run, err := apps.Solve(m.Options, prob, s, sched, mrf.SolveOptions{Init: init, Collector: acc})
	if err != nil {
		return Observables{}, err
	}
	return Observables{
		Magnetization: acc.mag / float64(acc.count),
		Energy:        acc.energy / float64(acc.count),
		Faults:        run.Faults,
	}, nil
}

// measureAcc accumulates the post-burn-in observables as an mrf collector.
// It implements mrf.StatefulCollector so checkpointed runs capture the
// partial sums; the floats are serialized as exact bit patterns, keeping
// resumed averages identical to an uninterrupted run's.
type measureAcc struct {
	model  Model
	burn   int
	count  int64
	mag    float64
	energy float64
}

// Collect measures the lattice after each post-burn-in sweep.
func (a *measureAcc) Collect(sweep int, lab *img.Labels) {
	if sweep < a.burn {
		return
	}
	mag, e := a.model.measure(lab)
	a.mag += mag
	a.energy += e
	a.count++
}

// CaptureState serializes the accumulator for the checkpoint subsystem.
func (a *measureAcc) CaptureState() ([]byte, error) {
	b := make([]byte, 0, 32)
	b = wire.AppendI64(b, int64(a.burn))
	b = wire.AppendI64(b, a.count)
	b = wire.AppendF64(b, a.mag)
	b = wire.AppendF64(b, a.energy)
	return b, nil
}

// RestoreState overwrites the accumulator from a CaptureState blob.
func (a *measureAcc) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	burn := r.I64()
	count := r.I64()
	mag := r.F64()
	energy := r.F64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("ising: corrupt measurement state: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("ising: %d trailing bytes after measurement state", r.Len())
	}
	if int(burn) != a.burn {
		return fmt.Errorf("ising: state has burn-in %d, this run uses %d", burn, a.burn)
	}
	if count < 0 {
		return fmt.Errorf("ising: negative measurement count %d", count)
	}
	a.count = count
	a.mag = mag
	a.energy = energy
	return nil
}

var _ mrf.StatefulCollector = (*measureAcc)(nil)

// measure computes |m| and the per-spin coupling energy of a configuration.
func (m Model) measure(lab *img.Labels) (mag, energy float64) {
	var sum float64
	for _, l := range lab.L {
		sum += spin(l)
	}
	n := float64(m.N * m.N)
	mag = math.Abs(sum) / n
	var e float64
	for y := 0; y < m.N; y++ {
		for x := 0; x < m.N; x++ {
			s := spin(lab.At(x, y))
			if x+1 < m.N {
				e -= s * spin(lab.At(x+1, y))
			}
			if y+1 < m.N {
				e -= s * spin(lab.At(x, y+1))
			}
		}
	}
	return mag, e / n
}
