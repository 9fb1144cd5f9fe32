package mrf_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// TestSolveOutputPinned pins the exact output of the serial path and of two
// tile plans: a SHA-256 over every OnSweep Energy and Flips (as bits), the
// final labels, every stream's CaptureState after the solve, and the encoded
// bytes of every periodic snapshot. The constants were recorded before the
// serial raster scan became the one-tile plan of the tile engine; a change
// that moves any tracked-energy rounding, any RNG draw or any snapshot byte
// fails here even when every label still agrees.
func TestSolveOutputPinned(t *testing.T) {
	p := &mrf.Problem{
		W: 13, H: 10, Labels: 5,
		Singleton:  func(x, y, l int) float64 { return float64((x*7+y*13+l*5)%11)*0.6 + 0.1*float64(l) },
		PairWeight: 1.5,
		Dist:       mrf.Absolute,
	}
	init := img.NewLabels(p.W, p.H)
	for i := range init.L {
		init.L[i] = (i * 7) % p.Labels
	}
	sched := mrf.Schedule{T0: 6, Alpha: 0.85, Iterations: 9}
	builders := map[string]func(rng.Source) core.LabelSampler{
		"new":      func(src rng.Source) core.LabelSampler { return core.MustUnit(core.NewRSUG(), src, true) },
		"software": func(src rng.Source) core.LabelSampler { return core.NewSoftwareSampler(src) },
	}
	geoms := map[string]mrf.SolveOptions{
		"w1":  {Workers: 1},
		"1x1": {Shards: shard.Geometry{Rows: 1, Cols: 1}},
		"w2":  {Workers: 2},
		"2x2": {Shards: shard.Geometry{Rows: 2, Cols: 2}},
	}
	want := map[string]string{
		"new/w1":       "57c48da3c11f103fc424751764f2b4f0a36f84e60a42f6cd36b51c4e4245a6a8",
		"new/1x1":      "57c48da3c11f103fc424751764f2b4f0a36f84e60a42f6cd36b51c4e4245a6a8",
		"new/w2":       "f3444a34715961edcd91eeaed2086fd840203ab4d1ec244f79c0ce97a838f5cb",
		"new/2x2":      "5eeb041119807a0dfbcdbec8a41a40a28dcf302472a47d89a22ceaf0c9eac8d8",
		"software/w1":  "fda8ada0339a0c1b363a8b1928a87800d05049b302aee054d1e4d4c76b16ec04",
		"software/1x1": "fda8ada0339a0c1b363a8b1928a87800d05049b302aee054d1e4d4c76b16ec04",
		"software/w2":  "5c0aabb49d842ca6498cd320a011251b0429619ad60a277436ef945d74c5b30f",
		"software/2x2": "626821466c9b5ee6cb0373e53d870a57c36dc7fb727aaa2f2bd2485676659634",
	}
	for name, build := range builders {
		for gname, opts := range geoms {
			key := name + "/" + gname
			h := sha256.New()
			word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			var samplers []core.LabelSampler
			factory := func(stream int) core.LabelSampler {
				s := build(rng.NewXoshiro256(core.StreamSeed(77, stream)))
				samplers = append(samplers, s)
				return s
			}
			opts.Init = init
			opts.OnSweep = func(_ int, _ *img.Labels, st mrf.SolveStats) {
				word(math.Float64bits(st.Energy))
				word(uint64(st.Flips))
			}
			opts.CheckpointEvery = 3
			opts.OnCheckpoint = func(st *mrf.SolverState) error {
				h.Write(checkpoint.Encode(&checkpoint.Snapshot{App: "pin", Sampler: name, Seed: 77, Schedule: sched, State: *st}))
				return nil
			}
			lab, err := mrf.Solve(context.Background(), p, factory, sched, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			for _, l := range lab.L {
				word(uint64(l))
			}
			for i, s := range samplers {
				ss, err := s.(core.Checkpointable).CaptureState()
				if err != nil {
					t.Fatalf("%s: stream %d: %v", key, i, err)
				}
				fmt.Fprintf(h, "%d:%v", i, ss)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[key] {
				t.Errorf("%s: hash %s, want %s", key, got, want[key])
			}
		}
	}
}
