// Command rsu-verify runs the statistical conformance battery and the
// golden-trace regression checks outside of `go test` — the entry point for
// `make verify` and CI gating.
//
// Usage:
//
//	rsu-verify                       # battery + marginal battery + goldens
//	rsu-verify -samples 100000       # higher-power battery run
//	rsu-verify -replicates 5000      # higher-power marginal battery run
//	rsu-verify -update-golden        # regenerate the golden trace files
//	rsu-verify -skip-battery         # skip the per-draw distribution battery
//	rsu-verify -skip-marginals       # skip the posterior-marginal battery
//	rsu-verify -skip-checkpoint      # skip the checkpoint/resume gate
//	rsu-verify -skip-shards          # skip the sharding-equivalence gates
//	rsu-verify -only-shards          # run only the sharding-equivalence gates
//	rsu-verify -shard-replicates 800 # higher-power sharding chi-square battery
//
// Exit status is non-zero when any battery check fails its
// Bonferroni-corrected threshold or any golden trace drifts.
package main

import (
	"flag"
	"fmt"
	"os"

	"rsu/internal/conformance"
)

func main() {
	var (
		goldenDir   = flag.String("golden", "internal/conformance/testdata/golden", "golden trace directory")
		update      = flag.Bool("update-golden", false, "regenerate golden traces instead of comparing")
		samples     = flag.Int("samples", 30000, "battery samples per (design point, energy vector, kernel)")
		seed        = flag.Uint64("seed", 2026, "battery RNG seed")
		alpha       = flag.Float64("alpha", 1e-3, "battery total false-rejection budget")
		skipBattery = flag.Bool("skip-battery", false, "skip the distribution battery")
		replicates  = flag.Int("replicates", 2000, "marginal-battery replicate chains per (grid, point, solver)")
		skipMarg    = flag.Bool("skip-marginals", false, "skip the posterior-marginal battery")
		skipCkpt    = flag.Bool("skip-checkpoint", false, "skip the checkpoint/resume bit-exactness gate")
		skipShards  = flag.Bool("skip-shards", false, "skip the sharding-equivalence gates")
		onlyShards  = flag.Bool("only-shards", false, "run only the sharding-equivalence gates (make shard-verify)")
		shardReps   = flag.Int("shard-replicates", 400, "sharding chi-square battery replicate chains per arm")
		verbose     = flag.Bool("v", false, "print every battery check")
	)
	flag.Parse()
	if *onlyShards {
		*skipBattery, *skipMarg, *skipCkpt = true, true, true
	}

	failed := false
	if !*skipBattery {
		rep, err := conformance.RunBattery(conformance.DefaultBattery(), conformance.BatteryOptions{
			Samples: *samples, Alpha: *alpha, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
			os.Exit(2)
		}
		if *verbose {
			for _, c := range rep.Checks {
				status := "ok"
				if c.Skipped {
					status = "skip"
				} else if c.P < rep.Threshold {
					status = "FAIL"
				}
				fmt.Printf("%-4s %-20s %-13s energies %d  p=%.4g\n",
					status, c.Point, c.Path, c.Energies, c.P)
			}
		}
		for _, f := range rep.Failures() {
			failed = true
			fmt.Fprintf(os.Stderr, "rsu-verify: battery FAIL %s energies %d (%s): p = %.3g < %.3g\n",
				f.Point, f.Energies, f.Path, f.P, rep.Threshold)
		}
		fmt.Printf("battery: %d checks, paths %v, min p = %.4g (threshold %.3g)\n",
			len(rep.Checks), rep.Paths(), rep.MinP(), rep.Threshold)
	}

	if !*skipMarg {
		rep, err := conformance.RunMarginalBattery(
			conformance.DefaultMarginalGrids(), conformance.DefaultMarginalPoints(),
			conformance.MarginalOptions{Replicates: *replicates, Alpha: *alpha, Seed: *seed},
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
			os.Exit(2)
		}
		if *verbose {
			for _, c := range rep.Checks {
				status := "ok"
				if c.Skipped {
					status = "skip"
				} else if c.P < rep.Threshold {
					status = "FAIL"
				}
				fmt.Printf("%-4s %-22s %-13s %-14s %-3s %-10s p=%.4g\n",
					status, c.Point, c.Path, c.Solver, c.Grid, c.Test, c.P)
			}
		}
		for _, f := range rep.Failures() {
			failed = true
			fmt.Fprintf(os.Stderr, "rsu-verify: marginals FAIL %s/%s/%s %s (%s): p = %.3g < %.3g\n",
				f.Point, f.Grid, f.Solver, f.Test, f.Path, f.P, rep.Threshold)
		}
		fmt.Printf("marginals: %d checks, paths %v, min p = %.4g (threshold %.3g)\n",
			len(rep.Checks), rep.Paths(), rep.MinP(), rep.Threshold)
	}

	if *update {
		if err := conformance.UpdateGolden(*goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
			os.Exit(2)
		}
		fmt.Printf("golden: regenerated %d traces in %s\n", len(conformance.Scenarios()), *goldenDir)
	}
	var errs []error
	if !*onlyShards {
		errs = conformance.VerifyGolden(*goldenDir)
		for _, err := range errs {
			failed = true
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
		}
		if len(errs) == 0 {
			fmt.Printf("golden: %d traces match\n", len(conformance.Scenarios()))
		}

		// The zero-fault invariant: re-run every golden scenario with a
		// zero-rate device-fault injection attached; the traces must not move
		// by a byte (see conformance.VerifyGoldenZeroFault).
		errs = conformance.VerifyGoldenZeroFault(*goldenDir)
		for _, err := range errs {
			failed = true
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
		}
		if len(errs) == 0 {
			fmt.Printf("golden (zero-fault injection): %d traces match\n", len(conformance.Scenarios()))
		}
	}

	// The bit-exact resume guarantee: interrupt every golden scenario at the
	// schedule midpoint, resume from the snapshot through a full container
	// round trip, and require the spliced trace to match the golden
	// byte-for-byte (see conformance.VerifyCheckpointResume).
	if !*skipCkpt {
		errs = conformance.VerifyCheckpointResume(*goldenDir)
		for _, err := range errs {
			failed = true
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
		}
		if len(errs) == 0 {
			fmt.Printf("golden (checkpoint resume): %d traces match\n", len(conformance.Scenarios()))
		}
	}

	// The sharding-equivalence gates (DESIGN.md §15): the degenerate 1x1
	// tiling must reproduce the serial goldens byte-for-byte; multi-tile
	// geometries must match a whole-grid checkerboard loop in
	// distribution (per-pixel two-sample chi-square, Bonferroni-corrected);
	// and a sharded run interrupted mid-schedule must resume bit-exactly
	// through the version-2 snapshot container.
	if !*skipShards {
		errs = conformance.VerifyShardedGolden(*goldenDir)
		for _, err := range errs {
			failed = true
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
		}
		if len(errs) == 0 {
			fmt.Printf("sharded golden (1x1 == serial): %d traces match\n", len(conformance.Scenarios()))
		}

		rep, err := conformance.RunShardBattery(conformance.DefaultShardDesigns(), conformance.ShardOptions{
			Replicates: *shardReps, Alpha: *alpha, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
			os.Exit(2)
		}
		if *verbose {
			for _, c := range rep.Checks {
				status := "ok"
				if c.P < rep.Threshold {
					status = "FAIL"
				}
				fmt.Printf("%-4s %-10s %-14s n=%d  p=%.4g\n", status, c.Design, c.Pixel, c.N, c.P)
			}
		}
		for _, f := range rep.Failures() {
			failed = true
			fmt.Fprintf(os.Stderr, "rsu-verify: sharding FAIL %s %s: p = %.3g < %.3g (n=%d per arm)\n",
				f.Design, f.Pixel, f.P, rep.Threshold, f.N)
		}
		fmt.Printf("sharding battery: %d checks, %d replicates per arm, min p = %.4g (threshold %.3g)\n",
			len(rep.Checks), rep.Replicates, rep.MinP(), rep.Threshold)

		errs = conformance.VerifyShardedCheckpointResume()
		for _, err := range errs {
			failed = true
			fmt.Fprintln(os.Stderr, "rsu-verify:", err)
		}
		if len(errs) == 0 {
			fmt.Println("sharded checkpoint resume: 4 apps splice bit-exactly")
		}
	}

	if failed {
		os.Exit(1)
	}
}
