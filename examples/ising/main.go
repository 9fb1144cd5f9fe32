// Ising example: a Boltzmann-machine-class workload (the paper's intro
// motivation) on the RSU-G substrate. Sweeps temperature through the exact
// critical point and prints magnetization bars for the software sampler,
// the 4-bit new RSU-G, and a 7-bit-lambda variant — exposing where the
// probability cut-off freezes the dynamics.
//
// Run with: go run ./examples/ising
//
// Pass -shards RxC to run each arm on the domain-decomposed tiled solver
// (one RNG stream per tile, DESIGN.md §15) — the physics is unchanged, the
// sweeps just execute tile-parallel.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"rsu/internal/apps/ising"
	"rsu/internal/core"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

func bar(m float64) string {
	n := int(m * 30)
	return strings.Repeat("#", n) + strings.Repeat(".", 30-n)
}

func main() {
	log.SetFlags(0)
	var (
		n      = flag.Int("n", 24, "lattice side length")
		shards = flag.String("shards", "",
			"tile the grid RxC (e.g. 2x2) and run the sharded solver; empty = automatic")
	)
	flag.Parse()

	model := ising.Model{N: *n, J: 16}
	if *shards != "" {
		var err error
		if model.Shards, err = shard.Parse(*shards); err != nil {
			log.Fatalf("-shards: %v", err)
		}
	}
	cfg7 := core.NewRSUG()
	cfg7.LambdaBits = 7
	cfg7.Mode = core.ConvertScaledCutoff
	cfg7.TimeBits = 0
	cfg7.Truncation = 0

	// Each arm builds its samplers through a per-stream factory so the tiled
	// solver can hand every tile its own RNG stream; unsharded runs draw the
	// whole lattice from stream 0, matching the previous single-sampler setup.
	arms := []struct {
		name    string
		factory func(stream int) core.LabelSampler
	}{
		{"software", core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
			return core.NewSoftwareSampler(src)
		})},
		{"RSU-G L4", core.StreamFactory(2, func(src rng.Source) core.LabelSampler {
			return core.MustUnit(core.NewRSUG(), src, true)
		})},
		{"RSU-G L7", core.StreamFactory(3, func(src rng.Source) core.LabelSampler {
			return core.MustUnit(cfg7, src, true)
		})},
	}

	fmt.Printf("2-D Ising (%dx%d), exact Tc = %.3f J\n\n", model.N, model.N, ising.CriticalTemperature)
	fmt.Printf("%-6s %-34s %-34s %s\n", "T", "software |m|", "RSU-G L4 |m|", "RSU-G L7 |m|")
	for _, T := range []float64{1.6, 2.0, 2.4, 2.8, 3.2, 4.0, 4.8} {
		mags := make([]float64, len(arms))
		for i, arm := range arms {
			m := model
			m.SamplerFactory = arm.factory
			m.Workers = 1
			obs, err := m.Run(nil, T, 120, 100, 7)
			if err != nil {
				log.Fatal(err)
			}
			mags[i] = obs.Magnetization
		}
		mark := " "
		if T > ising.CriticalTemperature && T-0.4 <= ising.CriticalTemperature {
			mark = "*"
		}
		fmt.Printf("%-5.1f%s |%s| |%s| |%s|\n", T, mark,
			bar(mags[0]), bar(mags[1]), bar(mags[2]))
	}
	fmt.Println("\n* = first row above Tc. The L4 probability cut-off freezes the ordered")
	fmt.Println("phase up to T ≈ 3.85 J; 7 lambda bits restore the true transition.")
}
