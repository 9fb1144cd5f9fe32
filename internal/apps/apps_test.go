package apps_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"rsu/internal/apps"
	"rsu/internal/apps/flow"
	"rsu/internal/apps/ising"
	"rsu/internal/apps/segment"
	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// outcome is what the shared-path checks compare across the four apps: a
// byte-exact fingerprint of the answer plus the shared outputs.
type outcome struct {
	answer string
	uq     *uq.Result
	faults *fault.Report
}

// appCase solves one tiny scene of an app with the given shared options.
type appCase struct {
	name  string
	solve func(o apps.Options) (outcome, error)
}

func appCases() []appCase {
	short := mrf.Schedule{T0: 32, Alpha: 0.9, Iterations: 12}
	stereoPair := synth.Stereo("tiny", 16, 12, 8, 2, 1)
	flowPair := synth.Flow("tiny", 16, 12, 1, 2, 1)
	segScene := synth.Segments("tiny", 16, 12, 4, 18, 1)
	return []appCase{
		{"stereo", func(o apps.Options) (outcome, error) {
			p := stereo.DefaultParams()
			p.Schedule = short
			p.Options = o
			r, err := stereo.Solve(stereoPair, nil, p)
			if err != nil {
				return outcome{}, err
			}
			return outcome{fmt.Sprint(r.Disparity.L), r.UQ, r.Faults}, nil
		}},
		{"flow", func(o apps.Options) (outcome, error) {
			p := flow.DefaultParams()
			p.Schedule = short
			p.Options = o
			r, err := flow.Solve(flowPair, nil, p)
			if err != nil {
				return outcome{}, err
			}
			return outcome{fmt.Sprint(r.Labels.L), r.UQ, r.Faults}, nil
		}},
		{"segment", func(o apps.Options) (outcome, error) {
			p := segment.DefaultParams()
			p.Iterations = 12
			p.Options = o
			r, err := segment.Solve(segScene, nil, p)
			if err != nil {
				return outcome{}, err
			}
			return outcome{fmt.Sprint(r.Labeling.L), r.UQ, r.Faults}, nil
		}},
		{"ising", func(o apps.Options) (outcome, error) {
			m := ising.Model{N: 8, J: 16, Options: o}
			obs, err := m.Run(nil, 2, 4, 8, 1)
			if err != nil {
				return outcome{}, err
			}
			answer := fmt.Sprintf("%x %x", math.Float64bits(obs.Magnetization), math.Float64bits(obs.Energy))
			return outcome{answer, nil, obs.Faults}, nil
		}},
	}
}

// baseOptions runs the hardware sampler on two checkerboard workers, so
// faults have a device to act on.
func baseOptions() apps.Options {
	return apps.Options{
		SamplerFactory: core.StreamFactory(7, func(src rng.Source) core.LabelSampler {
			return core.MustUnit(core.NewRSUG(), src, true)
		}),
		Workers: 2,
	}
}

// TestSharedOptions checks the behavior apps.Solve gives every app.
func TestSharedOptions(t *testing.T) {
	// A pair LUT for three labels fits none of the tiny scenes.
	threeLabels := (&mrf.Problem{
		W: 1, H: 1, Labels: 3,
		Singleton:  func(x, y, l int) float64 { return 0 },
		PairWeight: 1, Dist: mrf.Binary,
	}).BuildPairLUT()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range appCases() {
		t.Run(c.name, func(t *testing.T) {
			ideal, err := c.solve(baseOptions())
			if err != nil {
				t.Fatal(err)
			}
			if ideal.faults != nil {
				t.Fatal("fault report without Faults")
			}

			o := baseOptions()
			o.Faults = &fault.Config{}
			zero, err := c.solve(o)
			if err != nil {
				t.Fatal(err)
			}
			if zero.answer != ideal.answer {
				t.Fatal("zero-rate faults changed the answer")
			}
			if zero.faults == nil {
				t.Fatal("zero-rate faults returned no report")
			}

			o = baseOptions()
			o.Ctx = cancelled
			if _, err := c.solve(o); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
			}

			o = baseOptions()
			o.PairLUT = threeLabels
			if _, err := c.solve(o); err == nil {
				t.Fatal("mismatched pair LUT: want an error")
			}

			o = baseOptions()
			o.UQ = &uq.Options{BurnIn: -1}
			withUQ, err := c.solve(o)
			if c.name == "ising" {
				if err == nil {
					t.Fatal("ising with UQ: want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if withUQ.uq == nil {
				t.Fatal("UQ requested but no estimate returned")
			}
			if withUQ.answer != ideal.answer {
				t.Fatal("UQ collection changed the answer")
			}
		})
	}
}
