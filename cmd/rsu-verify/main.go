// Command rsu-verify runs the statistical conformance batteries and the
// byte-exact trace gates outside of `go test` — the entry point for
// `make verify` and CI gating.
//
// Usage:
//
//	rsu-verify                       # every battery and trace gate
//	rsu-verify -samples 100000       # higher-power distribution battery
//	rsu-verify -replicates 5000      # higher-power marginal battery
//	rsu-verify -shard-replicates 800 # higher-power sharding battery
//	rsu-verify -only-shards          # only the sharding-equivalence gates
//	rsu-verify -update-golden        # regenerate the golden traces, then verify
//	rsu-verify -v                    # print every battery check
//
// It runs the distribution, marginal and sharding chi-square batteries and
// then every row of the trace-gate table (conformance.Gates), printing one
// summary line per gate. Exit status is 1 when any battery check fails its
// Bonferroni-corrected threshold or any trace diverges, 2 on a setup error.
package main

import (
	"flag"
	"fmt"
	"os"

	"rsu/internal/conformance"
)

// A step is one gate rsu-verify runs; run returns the gate's summary line
// and one message per failure.
type step struct {
	sharding bool // one of the sharding-equivalence gates (-only-shards)
	run      func() (summary string, fails []string)
}

func main() {
	var (
		goldenDir  = flag.String("golden", "internal/conformance/testdata/golden", "golden trace directory")
		update     = flag.Bool("update-golden", false, "regenerate golden traces before comparing")
		samples    = flag.Int("samples", 30000, "battery samples per (design point, energy vector, kernel)")
		seed       = flag.Uint64("seed", 2026, "battery RNG seed")
		alpha      = flag.Float64("alpha", 1e-3, "battery total false-rejection budget")
		replicates = flag.Int("replicates", 2000, "marginal-battery replicate chains per (grid, point, solver)")
		onlyShards = flag.Bool("only-shards", false, "run only the sharding-equivalence gates (make shard-verify)")
		shardReps  = flag.Int("shard-replicates", 400, "sharding chi-square battery replicate chains per arm")
		verbose    = flag.Bool("v", false, "print every battery check")
	)
	flag.Parse()

	if *update {
		if err := conformance.UpdateGolden(*goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
			os.Exit(2)
		}
		fmt.Printf("golden: regenerated %d traces in %s\n", len(conformance.Scenarios()), *goldenDir)
	}

	battery := func(name string, sharding bool, run func() (*conformance.Report, error)) step {
		return step{sharding, func() (string, []string) {
			rep, err := run()
			if err != nil {
				fmt.Fprintln(os.Stderr, "rsu-verify:", err)
				os.Exit(2)
			}
			var fails []string
			for _, c := range rep.Checks {
				status := "ok"
				switch {
				case c.Skipped:
					status = "skip"
				case rep.Failed(c):
					status = "FAIL"
					fails = append(fails, fmt.Sprintf("%s FAIL %s (%s): p = %.3g < %.3g (n=%d)",
						name, c.Name, c.Path, c.P, rep.Threshold, c.N))
				}
				if *verbose {
					fmt.Printf("%-4s %-44s %-13s n=%-6d p=%.4g\n", status, c.Name, c.Path, c.N, c.P)
				}
			}
			return fmt.Sprintf("%s: %d checks, paths %v, min p = %.4g (threshold %.3g)",
				name, len(rep.Checks), rep.Paths(), rep.MinP(), rep.Threshold), fails
		}}
	}
	steps := []step{
		battery("battery", false, func() (*conformance.Report, error) {
			return conformance.RunBattery(conformance.DefaultBattery(), conformance.BatteryOptions{
				Samples: *samples, Alpha: *alpha, Seed: *seed,
			})
		}),
		battery("marginals", false, func() (*conformance.Report, error) {
			return conformance.RunMarginalBattery(conformance.DefaultMarginalGrids(), conformance.DefaultMarginalPoints(),
				conformance.MarginalOptions{Replicates: *replicates, Alpha: *alpha, Seed: *seed})
		}),
		battery("sharding battery", true, func() (*conformance.Report, error) {
			return conformance.RunShardBattery(conformance.DefaultShardDesigns(), conformance.ShardOptions{
				Replicates: *shardReps, Alpha: *alpha, Seed: *seed,
			})
		}),
	}
	for _, g := range conformance.Gates() {
		steps = append(steps, step{g.Sharding, func() (string, []string) {
			var fails []string
			for _, err := range g.Verify(*goldenDir) {
				fails = append(fails, err.Error())
			}
			return fmt.Sprintf("%s: %d traces match", g.Name, len(g.Cases)-len(fails)), fails
		}})
	}

	failed := false
	for _, s := range steps {
		if *onlyShards && !s.sharding {
			continue
		}
		summary, fails := s.run()
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "rsu-verify:", f)
		}
		fmt.Println(summary)
		failed = failed || len(fails) > 0
	}
	if failed {
		os.Exit(1)
	}
}
