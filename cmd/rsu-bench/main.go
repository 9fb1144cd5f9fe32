// Command rsu-bench regenerates the paper's tables and figures. Each
// experiment prints the same rows or series the paper reports; figure
// experiments additionally write PGM images when -out is set.
//
// Usage:
//
//	rsu-bench -list
//	rsu-bench -run fig5a
//	rsu-bench -run all -out results/ | tee results/report.txt
//	rsu-bench -run fig8 -iterscale 0.25   # quick pass
//	rsu-bench -perf BENCH_4.json          # calibrated kernel micro suite report
//	rsu-bench -perf-check BENCH_4.json    # regression gate vs the baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rsu/internal/benchkit"
	"rsu/internal/experiments"
)

// startProfiles activates the optional pprof outputs, mirroring
// internal/runopt's wiring: the CPU profile covers the whole invocation and
// the heap profile is written at exit (after a GC, so it shows retained
// memory rather than garbage). The returned stop function flushes both and
// must run before the process exits — which is why main defers it inside
// realMain instead of calling os.Exit directly.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			_ = cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			_ = f.Close()
		}
	}, nil
}

// writeReport runs the kernel micro suite (benchkit.Run) and writes its
// machine-readable report to path.
func writeReport(path string) error {
	// Fail on an unwritable path before spending time on the suite
	// (O_CREATE without O_TRUNC leaves any existing report intact).
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_ = probe.Close()
	rep := benchkit.Run()
	fmt.Print(rep.String())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runPerfCheck re-runs the kernel micro suite and gates it against the
// baseline report: each kernel's calibration-scaled time may grow at most
// benchkit.DefaultTolerance over the baseline's. A non-nil error means the
// gate tripped or the inputs were unusable; the gate report is written to
// reportPath when set, regardless of the verdict, so CI can upload it as an
// artifact either way.
func runPerfCheck(baselinePath, reportPath string, injectSlowdown float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline benchkit.Report
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	current := benchkit.Run()
	if injectSlowdown > 1 {
		fmt.Printf("self-test: injecting a %.2gx slowdown into the current report\n", injectSlowdown)
		current = current.WithInjectedSlowdown(injectSlowdown)
	}
	gate, err := benchkit.Compare(baseline, current)
	if err != nil {
		return err
	}
	fmt.Print(gate.String())
	if reportPath != "" {
		out, err := json.MarshalIndent(gate, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", reportPath)
	}
	if gate.Regressed {
		return fmt.Errorf("performance regression against %s (tolerance %.0f%%)", baselinePath, gate.Tolerance*100)
	}
	return nil
}

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back to main so deferred cleanup — the
// pprof flush in particular — runs before the process exits.
func realMain() int {
	var (
		run        = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		seed       = flag.Uint64("seed", 1, "master random seed")
		scale      = flag.Int("scale", 1, "synthetic dataset scale factor")
		iterScale  = flag.Float64("iterscale", 1, "multiplier on annealing iterations (use <1 for a quick pass)")
		out        = flag.String("out", "", "directory for PGM outputs of figure experiments")
		perf       = flag.String("perf", "", "run the kernel micro suite and write the JSON report to this path")
		perfCheck  = flag.String("perf-check", "", "re-run the micro suite and gate it against this baseline BENCH_*.json (exit 1 on regression)")
		perfRep    = flag.String("perf-report", "", "with -perf-check: write the gate report JSON to this path")
		perfInj    = flag.Float64("perf-inject-slowdown", 1, "with -perf-check: self-test knob slowing every current kernel by this factor")
		workers    = flag.Int("workers", 0, "design-point workers: 0 = GOMAXPROCS, 1 = serial")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	if *perfCheck != "" {
		if err := runPerfCheck(*perfCheck, *perfRep, *perfInj); err != nil {
			fmt.Fprintf(os.Stderr, "perf check failed: %v\n", err)
			return 1
		}
		return 0
	}

	if *perf != "" {
		if err := writeReport(*perf); err != nil {
			fmt.Fprintf(os.Stderr, "perf suite failed: %v\n", err)
			return 1
		}
		return 0
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-16s %s\n", r.ID, r.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nselect with -run <id>[,<id>...] or -run all")
		}
		return 0
	}

	opts := experiments.Options{
		Seed:      *seed,
		Scale:     *scale,
		IterScale: *iterScale,
		OutDir:    *out,
		Workers:   *workers,
	}

	var ids []string
	if *run == "all" {
		for _, r := range experiments.Registry() {
			ids = append(ids, r.ID)
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	failed := false
	for _, id := range ids {
		r, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		fmt.Printf("== %s: %s\n", r.ID, r.Title)
		start := time.Now()
		res, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			failed = true
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("-- %s done in %.1fs\n\n", r.ID, time.Since(start).Seconds())
	}
	if failed {
		return 1
	}
	return 0
}
