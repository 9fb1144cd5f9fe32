package flow

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

func TestDownsample2(t *testing.T) {
	g := img.NewGray(4, 2)
	copy(g.Pix, []float64{0, 4, 8, 12, 4, 8, 12, 16})
	d := downsample2(g)
	if d.W != 2 || d.H != 1 {
		t.Fatalf("size %dx%d, want 2x1", d.W, d.H)
	}
	if d.At(0, 0) != 4 || d.At(1, 0) != 12 {
		t.Fatalf("values %v %v, want 4 12", d.At(0, 0), d.At(1, 0))
	}
	// Odd sizes fold the trailing row/column.
	odd := img.NewGray(3, 3)
	dodd := downsample2(odd)
	if dodd.W != 2 || dodd.H != 2 {
		t.Fatalf("odd downsample %dx%d, want 2x2", dodd.W, dodd.H)
	}
}

func TestUpsampleFieldDoublesVectors(t *testing.T) {
	f := newField(2, 2)
	f.U[3] = 2
	f.V[3] = -1
	up := upsampleField(f, 4, 4)
	if up.U[3*4+3] != 4 || up.V[3*4+3] != -2 {
		t.Fatalf("upsampled vector (%d,%d), want (4,-2)", up.U[3*4+3], up.V[3*4+3])
	}
	if up.U[0] != 0 {
		t.Fatal("zero region must stay zero")
	}
}

func pyramidParams() Params {
	p := DefaultParams()
	p.Schedule = mrf.Schedule{T0: 32, Alpha: 0.95, Iterations: 80}
	return p
}

func TestPyramidBeatsSingleLevelOnLargeMotion(t *testing.T) {
	pair := synth.LargeMotion(1)
	p := pyramidParams()

	// Single level, radius 3: motions of ±6 are unreachable.
	single, err := SolvePyramid(pair, func(int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(1))
	}, p, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two levels cover ±9.
	pyr, err := SolvePyramid(pair, func(l int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(10 + uint64(l)))
	}, p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pyr.EPE >= single.EPE {
		t.Fatalf("pyramid EPE %.3f should beat single-level %.3f on ±6 motion", pyr.EPE, single.EPE)
	}
	// Short test schedule: the full-fidelity run (ext-pyramid) reaches
	// ~1.4; only guard against gross failure here.
	if pyr.EPE > 2.2 {
		t.Fatalf("pyramid EPE %.3f too high", pyr.EPE)
	}
}

func TestPyramidWithRSUGUnits(t *testing.T) {
	pair := synth.LargeMotion(1)
	p := pyramidParams()
	pyr, err := SolvePyramid(pair, func(l int) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(20+uint64(l)), true)
	}, p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pyr.EPE > 2.3 {
		t.Fatalf("RSU-G pyramid EPE %.3f too high", pyr.EPE)
	}
}

func TestPyramidSingleLevelMatchesSolve(t *testing.T) {
	// On an in-window scene, a 1-level pyramid is the plain solver.
	pair := synth.Flow("small", 32, 24, 2, 3, 9)
	p := pyramidParams()
	a, err := Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(3)), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolvePyramid(pair, func(int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(3))
	}, p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.EPE > a.EPE+0.3 {
		t.Fatalf("1-level pyramid EPE %.3f diverges from direct solve %.3f", b.EPE, a.EPE)
	}
}

func TestPyramidErrors(t *testing.T) {
	pair := synth.Flow("small", 32, 24, 2, 3, 9)
	mk := func(int) core.LabelSampler { return core.NewSoftwareSampler(rng.NewSplitMix64(1)) }
	p := pyramidParams()
	if _, err := SolvePyramid(pair, mk, p, 3, 0); err == nil {
		t.Error("zero levels must error")
	}
	if _, err := SolvePyramid(pair, mk, p, 4, 1); err == nil {
		t.Error("radius 4 (81 labels) must error")
	}
	if _, err := SolvePyramid(pair, mk, p, 3, 5); err == nil {
		t.Error("over-deep pyramid must error")
	}
	if _, err := SolvePyramid(pair, func(int) core.LabelSampler { return nil }, p, 3, 1); err == nil {
		t.Error("nil sampler must error")
	}
}

func TestPyramidHonorsCancelledContext(t *testing.T) {
	pair := synth.LargeMotion(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newSampler := func(int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(1))
	}
	for _, factory := range []bool{false, true} {
		p := pyramidParams()
		p.Ctx = ctx
		if factory {
			p.SamplerFactory = core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
				return core.NewSoftwareSampler(src)
			})
			p.Workers = 2
		}
		if _, err := SolvePyramid(pair, newSampler, p, 3, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("factory=%v: err = %v, want context.Canceled", factory, err)
		}
	}
}

// TestPyramidRejectsNegativeWorkers: a negative worker count is an error, as
// in every other app, on both the single-sampler and the factory path.
func TestPyramidRejectsNegativeWorkers(t *testing.T) {
	pair := synth.LargeMotion(1)
	newSampler := func(int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(1))
	}
	for _, factory := range []bool{false, true} {
		p := pyramidParams()
		p.Workers = -3
		if factory {
			p.SamplerFactory = core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
				return core.NewSoftwareSampler(src)
			})
		}
		_, err := SolvePyramid(pair, newSampler, p, 3, 2)
		if err == nil || !strings.Contains(err.Error(), "Workers must be >= 0") {
			t.Fatalf("factory=%v: err = %v, want the negative-workers error", factory, err)
		}
	}
}
