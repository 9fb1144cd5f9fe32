package benchkit

import (
	"fmt"
	"math"
)

// GateSchema identifies the perf-regression gate report format.
const GateSchema = "rsu-bench-perf-gate/v2"

// DefaultTolerance is the relative slack the gate allows before declaring a
// regression: a kernel's scaled time may grow up to 15% over the
// baseline's. On a shared 2-vCPU host a kernel's scaled time stays within a
// few percent of its median in most runs, while an accidentally disabled
// fast path costs 1.8x and more.
const DefaultTolerance = 0.15

// Check is one kernel's gate verdict. The gate compares scaled times —
// kernel ns/op over calibration ns/op, measured in the same rounds — so a
// baseline recorded on one host can gate a run on another of the same
// architecture; raw ns/op are kept for reference.
type Check struct {
	Name         string  `json:"name"`
	BaselineNsOp float64 `json:"baseline_ns_op"`
	CurrentNsOp  float64 `json:"current_ns_op"`
	Baseline     float64 `json:"baseline_scaled"`
	Current      float64 `json:"current_scaled"`
	// Ratio is current/baseline scaled time; it must stay <= Limit = 1+tol.
	Ratio     float64 `json:"ratio"`
	Limit     float64 `json:"limit"`
	Regressed bool    `json:"regressed"`
}

// GateReport is the machine-readable artifact the CI perf job uploads.
type GateReport struct {
	Schema    string  `json:"schema"`
	Tolerance float64 `json:"tolerance"`
	Checks    []Check `json:"checks"`
	Regressed bool    `json:"regressed"`
}

// usable reports whether a measurement is a positive, finite time.
func usable(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Compare gates every MicroSet kernel of current against baseline with
// DefaultTolerance. It returns an error for malformed input — a schema
// mismatch, a kernel missing from either report, or a kernel, calibration or
// scaled time that is not positive and finite — and otherwise a report whose
// Regressed flag is the gate verdict.
func Compare(baseline, current Report) (GateReport, error) {
	rep := GateReport{Schema: GateSchema, Tolerance: DefaultTolerance}
	index := func(which string, r Report) (map[string]Result, error) {
		if r.Schema != Schema {
			return nil, fmt.Errorf("benchkit: %s schema %q, want %q", which, r.Schema, Schema)
		}
		m := make(map[string]Result, len(r.Benchmarks))
		for _, b := range r.Benchmarks {
			if !usable(b.NsOp) || !usable(b.CalNsOp) || !usable(b.Scaled) {
				return nil, fmt.Errorf("benchkit: %s kernel %q has unusable times (ns/op %v, calibration %v, scaled %v)",
					which, b.Name, b.NsOp, b.CalNsOp, b.Scaled)
			}
			m[b.Name] = b
		}
		return m, nil
	}
	base, err := index("baseline", baseline)
	if err != nil {
		return rep, err
	}
	cur, err := index("current", current)
	if err != nil {
		return rep, err
	}
	limit := 1 + DefaultTolerance
	for _, name := range MicroSet() {
		b, ok := base[name]
		if !ok {
			return rep, fmt.Errorf("benchkit: baseline report has no kernel %q", name)
		}
		c, ok := cur[name]
		if !ok {
			return rep, fmt.Errorf("benchkit: current report has no kernel %q", name)
		}
		ck := Check{
			Name:         name,
			BaselineNsOp: b.NsOp,
			CurrentNsOp:  c.NsOp,
			Baseline:     b.Scaled,
			Current:      c.Scaled,
			Ratio:        c.Scaled / b.Scaled,
			Limit:        limit,
		}
		ck.Regressed = ck.Ratio > limit
		rep.Checks = append(rep.Checks, ck)
		rep.Regressed = rep.Regressed || ck.Regressed
	}
	return rep, nil
}

// String renders the gate report as an aligned table with a verdict line.
func (g GateReport) String() string {
	s := fmt.Sprintf("%s (tolerance %.0f%%)\n", g.Schema, g.Tolerance*100)
	s += fmt.Sprintf("%-28s %10s %10s %7s %7s  %s\n",
		"kernel", "base", "current", "ratio", "limit", "verdict")
	for _, c := range g.Checks {
		verdict := "ok"
		if c.Regressed {
			verdict = "REGRESSED"
		}
		s += fmt.Sprintf("%-28s %10.4f %10.4f %7.3f %7.3f  %s\n",
			c.Name, c.Baseline, c.Current, c.Ratio, c.Limit, verdict)
	}
	if g.Regressed {
		s += "verdict: PERFORMANCE REGRESSION\n"
	} else {
		s += "verdict: ok\n"
	}
	return s
}

// WithInjectedSlowdown returns a copy of the report with every kernel
// slowed by the given factor — the self-test knob behind rsu-bench
// -perf-inject-slowdown, which proves the gate trips on a regression instead
// of silently passing everything.
func (r Report) WithInjectedSlowdown(factor float64) Report {
	out := r
	out.Benchmarks = make([]Result, len(r.Benchmarks))
	for i, b := range r.Benchmarks {
		b.NsOp *= factor
		b.Scaled *= factor
		out.Benchmarks[i] = b
	}
	return out
}
