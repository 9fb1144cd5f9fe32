// Package conformance is the repository's statistical correctness layer: it
// proves that every sampling path of the RSU-G functional simulator draws
// from the distribution the paper's math says it must, and that every solver
// path is bit-reproducible.
//
// It has three pillars, mirroring the verification discipline the paper's
// authors applied with their MATLAB functional simulator:
//
//  1. Distribution conformance battery (battery.go): for a grid of design
//     points spanning Energy_bits x Lambda_bits x Time_bits x Truncation and
//     the three precision-recovery techniques, analytic.go derives — from
//     first principles, independently of the core package's kernels — the
//     exact categorical distribution of the first-to-fire race, and the
//     battery chi-square-tests core.Unit's sampling kernels against it
//     across all four kernel paths (quantized, binned-codes, binned-float,
//     continuous), with Bonferroni-corrected p-value gates. marginals.go
//     does the same for whole solver chains: posterior marginals of the
//     serial and tile engines against exact enumeration on tiny grids, and
//     sharding.go per-pixel label histograms of multi-tile sharded runs
//     against a whole-grid checkerboard loop.
//
//  2. Byte-exact trace gates (golden.go, gates.go): small fixed-seed runs of
//     the four applications (stereo, flow, segment, ising) at 1, 2 and 4
//     solver workers, with the final label map and per-sweep energy trace
//     checked byte-exactly against files under testdata/golden. Worker
//     count 1 is the serial solver and n > 1 the tile engine on n row bands;
//     each worker count has its own golden because tiles own independent
//     RNG streams, and the files lock in the solver's fixed-(seed, workers)
//     bit-reproducibility guarantee. One runner (Scenario.Run over
//     mrf.SolveOptions) and one interrupt/resume routine feed the gate table
//     (Gates), whose rows name each gate, how it runs its cases and the trace
//     each must equal: the checked-in golden (plain, zero-fault injection,
//     checkpoint resume), the app's w1 golden (1x1 tiling), or an
//     uninterrupted 2x2-sharded run (sharded resume). Regenerate the files
//     with `go test ./internal/conformance -run TestGolden -update-golden`
//     or `rsu-verify -update-golden`.
//
//  3. Property and fuzz layer (fuzz_test.go, property_test.go): native Go
//     fuzz targets for Unit.Sample and the energy-to-lambda conversion (no
//     panics, in-range labels, monotone decay rates), plus a property test
//     that the mrf.Tables energy LUT is bit-identical to direct evaluation
//     over random MRF problems.
//
// The batteries report through one Report type. The same batteries and the
// same gate table run in `go test` and standalone through cmd/rsu-verify
// (wired into `make verify` and CI).
package conformance
