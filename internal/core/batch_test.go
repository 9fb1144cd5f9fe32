package core

import (
	"math"
	"strings"
	"testing"

	"rsu/internal/rng"
)

// batchConfigs enumerates the sampler variants whose batched path must be
// draw-for-draw identical to the per-pixel Sample loop.
func batchConfigs(t *testing.T) map[string]func(seed uint64) LabelSampler {
	t.Helper()
	unit := func(cfg Config, useLUT bool) func(seed uint64) LabelSampler {
		return func(seed uint64) LabelSampler {
			return MustUnit(cfg, rng.NewXoshiro256(seed), useLUT)
		}
	}
	firstWins := NewRSUG()
	firstWins.Tie = TieFirstWins
	return map[string]func(seed uint64) LabelSampler{
		"new-rsug-lut":        unit(NewRSUG(), true),
		"new-rsug-boundary":   unit(NewRSUG(), false),
		"new-rsug-first-wins": unit(firstWins, true),
		"prev-rsug":           unit(PrevRSUG(), true),
		"float-reference":     unit(FloatReference(), true),
		"software": func(seed uint64) LabelSampler {
			return NewSoftwareSampler(rng.NewXoshiro256(seed))
		},
	}
}

// batchBlock builds a deterministic n×stride energy block plus current labels.
func batchBlock(n, stride int) (energies []float64, currents []int) {
	energies = make([]float64, n*stride)
	currents = make([]int, n)
	for i := range energies {
		energies[i] = 3.5 * math.Abs(math.Sin(float64(i)*0.73+0.2))
	}
	for i := range currents {
		currents[i] = (i * 5) % stride
	}
	return energies, currents
}

// TestSampleBatchMatchesSampleLoop is the batched-path correctness spine:
// for every sampler variant, SampleBatch over a block must produce exactly
// the labels (and consume exactly the RNG draws) of a Sample loop in pixel
// order — checked by running both against identically-seeded twins for
// several batches back to back.
func TestSampleBatchMatchesSampleLoop(t *testing.T) {
	const n, stride, rounds = 37, 8, 4
	for name, build := range batchConfigs(t) {
		t.Run(name, func(t *testing.T) {
			loop := build(99)
			batched := AsBatch(build(99))
			MustSetTemperature(loop, 2.5)
			MustSetTemperature(batched, 2.5)
			out := make([]int, n)
			for round := 0; round < rounds; round++ {
				energies, currents := batchBlock(n, stride)
				if err := batched.SampleBatch(energies, stride, currents, out); err != nil {
					t.Fatalf("round %d: SampleBatch: %v", round, err)
				}
				for i := 0; i < n; i++ {
					want, err := loop.Sample(energies[i*stride:(i+1)*stride], currents[i])
					if err != nil {
						t.Fatalf("round %d: Sample pixel %d: %v", round, i, err)
					}
					if out[i] != want {
						t.Fatalf("round %d pixel %d: SampleBatch drew %d, Sample loop drew %d", round, i, out[i], want)
					}
				}
			}
		})
	}
}

// TestSampleBatchAliasedOut checks the documented aliasing allowance:
// currents and out may be the same slice (the solver samples in place).
func TestSampleBatchAliasedOut(t *testing.T) {
	const n, stride = 16, 6
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(7), true)
	twin := MustUnit(NewRSUG(), rng.NewXoshiro256(7), true)
	MustSetTemperature(u, 4)
	MustSetTemperature(twin, 4)
	energies, currents := batchBlock(n, stride)
	labels := append([]int(nil), currents...)
	if err := u.SampleBatch(energies, stride, labels, labels); err != nil {
		t.Fatalf("aliased SampleBatch: %v", err)
	}
	out := make([]int, n)
	if err := twin.SampleBatch(energies, stride, currents, out); err != nil {
		t.Fatalf("twin SampleBatch: %v", err)
	}
	for i := range out {
		if labels[i] != out[i] {
			t.Fatalf("pixel %d: aliased draw %d != separate-slices draw %d", i, labels[i], out[i])
		}
	}
}

// TestSampleBatchValidation exercises the shared argument contract.
func TestSampleBatchValidation(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(3), true)
	MustSetTemperature(u, 2)
	cases := []struct {
		name     string
		energies []float64
		stride   int
		currents []int
		out      []int
		want     string
	}{
		{"zero-stride", make([]float64, 8), 0, make([]int, 2), make([]int, 2), "stride"},
		{"negative-stride", make([]float64, 8), -4, make([]int, 2), make([]int, 2), "stride"},
		{"out-mismatch", make([]float64, 8), 4, make([]int, 2), make([]int, 3), "mismatch"},
		{"short-block", make([]float64, 7), 4, make([]int, 2), make([]int, 2), "energy block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := u.SampleBatch(tc.energies, tc.stride, tc.currents, tc.out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	// The adapter applies the same validation before touching the sampler.
	ad := AsBatch(nopSampler{})
	if err := ad.SampleBatch(make([]float64, 4), 0, make([]int, 1), make([]int, 1)); err == nil {
		t.Fatalf("adapter accepted zero stride")
	}
}

// nopSampler is a minimal LabelSampler without a SampleBatch method, forcing
// AsBatch down the adapter path.
type nopSampler struct{}

func (nopSampler) Sample(energies []float64, current int) (int, error) { return current, nil }
func (nopSampler) SetTemperature(T float64) error                      { return nil }

func TestAsBatchPassthrough(t *testing.T) {
	u := MustUnit(NewRSUG(), rng.NewXoshiro256(1), true)
	if got := AsBatch(u); got != BatchSampler(u) {
		t.Fatalf("AsBatch(Unit) should return the unit itself, got %T", got)
	}
	if _, ok := AsBatch(nopSampler{}).(batchAdapter); !ok {
		t.Fatalf("AsBatch(plain sampler) should wrap in batchAdapter")
	}
}

// TestSampleBatchSteadyStateAllocs pins the zero-alloc contract: after the
// first call sizes the scratch, batched sampling never allocates.
func TestSampleBatchSteadyStateAllocs(t *testing.T) {
	const n, stride = 32, 8
	energies, currents := batchBlock(n, stride)
	out := make([]int, n)
	samplers := map[string]BatchSampler{
		"unit":     MustUnit(NewRSUG(), rng.NewXoshiro256(5), true),
		"software": NewSoftwareSampler(rng.NewXoshiro256(5)),
	}
	for name, s := range samplers {
		t.Run(name, func(t *testing.T) {
			MustSetTemperature(s, 3)
			if err := s.SampleBatch(energies, stride, currents, out); err != nil {
				t.Fatalf("warm-up SampleBatch: %v", err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := s.SampleBatch(energies, stride, currents, out); err != nil {
					t.Fatalf("SampleBatch: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state SampleBatch allocated %.1f objects/run, want 0", allocs)
			}
		})
	}
}
