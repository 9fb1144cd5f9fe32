package flow

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// TestPyramidParallelFactory drives both pyramid levels through the
// checkerboard-parallel solver and checks quality plus run-to-run
// determinism; newSampler may be nil once the factory is set.
func TestPyramidParallelFactory(t *testing.T) {
	pair := synth.LargeMotion(1)
	p := pyramidParams()
	p.SamplerFactory = core.StreamFactory(40, func(src rng.Source) core.LabelSampler {
		return core.NewSoftwareSampler(src)
	})
	p.Workers = 2
	pyr, err := SolvePyramid(pair, nil, p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pyr.EPE > 2.2 {
		t.Fatalf("parallel pyramid EPE %.3f too high", pyr.EPE)
	}
	again, err := SolvePyramid(pair, nil, p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pyr.EPE != again.EPE {
		t.Fatalf("parallel pyramid not deterministic: EPE %.6f vs %.6f", pyr.EPE, again.EPE)
	}
	for i := range pyr.Field.U {
		if pyr.Field.U[i] != again.Field.U[i] || pyr.Field.V[i] != again.Field.V[i] {
			t.Fatalf("parallel pyramid field differs at index %d", i)
		}
	}
}

// TestPyramidStreamsNeverRepeat records every stream index the pyramid asks
// its factory for. Each level must draw from streams no other level touched,
// both on the default geometry, where the finest level runs more tiles than
// the coarser ones, and at an explicit Workers count. The Workers-3 output is
// pinned to a hash recorded before Workers 0 meant shard.Auto, so the level
// offsets kept their explicit-count values.
func TestPyramidStreamsNeverRepeat(t *testing.T) {
	pair := synth.LargeMotion(3)
	for _, c := range []struct {
		workers, streams int
		hash             string
	}{
		{0, 4 + 2 + 2, ""}, // 384x288, 192x144 and 96x72: Auto 2x2, 1x2, 1x2
		{3, 3 * 3, "e4dc901ccb448d92f7a039fe9ddf112023b1979d1867ea62a7c4a31a25cd6c48"},
	} {
		p := pyramidParams()
		p.Schedule.Iterations = 4
		p.Workers = c.workers
		seen := map[int]bool{}
		build := core.StreamFactory(40, func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) })
		p.SamplerFactory = func(stream int) core.LabelSampler {
			if seen[stream] {
				t.Errorf("Workers %d: stream %d requested twice", c.workers, stream)
			}
			seen[stream] = true
			return build(stream)
		}
		pyr, err := SolvePyramid(pair, nil, p, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != c.streams {
			t.Errorf("Workers %d: %d streams, want %d", c.workers, len(seen), c.streams)
		}
		if c.hash == "" {
			continue
		}
		h := sha256.New()
		for i := range pyr.Field.U {
			fmt.Fprintf(h, "%d,%d;", pyr.Field.U[i], pyr.Field.V[i])
		}
		fmt.Fprintf(h, "%x", math.Float64bits(pyr.EPE))
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.hash {
			t.Errorf("Workers %d: output hash %s, want %s", c.workers, got, c.hash)
		}
	}
}
