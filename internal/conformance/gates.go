package conformance

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"rsu/internal/fault"
	"rsu/internal/mrf"
	"rsu/internal/shard"
)

// Gate is one byte-exact trace gate: every case runs one way and its encoded
// trace must equal a reference trace byte for byte.
type Gate struct {
	// Name labels the gate in rsu-verify's output and in every error.
	Name string
	// Sharding marks the sharding-equivalence gates (DESIGN.md §15), the
	// ones `rsu-verify -only-shards` runs.
	Sharding bool
	// Cases are the scenarios the gate runs.
	Cases []Scenario
	// run runs case s. A run that solves its own reference (an
	// uninterrupted run of the case) also returns that trace as ref.
	run func(s Scenario) (got, ref *Trace, err error)
	// want returns the trace case s must equal and the name errors cite;
	// a nil want compares each case with the ref its run returns.
	want func(dir string, s Scenario) (ref string, trace []byte, err error)
}

// resumeTiles is the geometry the sharded resume gate runs every golden app
// on: 2x2 fits all four golden grids and exercises all four halo directions.
var resumeTiles = shard.Geometry{Rows: 2, Cols: 2}

// Gates returns the trace-gate table; rsu-verify and go test both run it.
//
//   - golden: every scenario against its checked-in file.
//   - zero-fault injection: a zero-rate device-fault injection attached to
//     every sampler must not perturb a single draw on any solver path.
//   - checkpoint resume: interrupted at the midpoint and resumed through a
//     container round trip, the spliced trace must equal the golden.
//   - 1x1 sharded: the degenerate tiling is the serial solver, so every
//     scenario must equal its app's w1 golden.
//   - sharded checkpoint resume: a 2x2-sharded run of each app, interrupted
//     and resumed from the snapshot alone, must equal an uninterrupted 2x2
//     run.
func Gates() []Gate {
	var apps []Scenario
	for _, app := range goldenApps {
		apps = append(apps, Scenario{App: app, Workers: resumeTiles.Tiles()})
	}
	return []Gate{
		{Name: "golden", Cases: Scenarios(), want: ownGolden,
			run: solo(func(s Scenario) (*Trace, error) { return s.Run(mrf.SolveOptions{}) })},
		{Name: "golden (zero-fault injection)", Cases: Scenarios(), want: ownGolden,
			run: solo(func(s Scenario) (*Trace, error) {
				inj, err := fault.New(&fault.Config{})
				if err != nil {
					return nil, err
				}
				return s.Run(mrf.SolveOptions{Faults: inj})
			})},
		{Name: "golden (checkpoint resume)", Cases: Scenarios(), want: ownGolden,
			run: func(s Scenario) (*Trace, *Trace, error) { return s.runResumed(mrf.SolveOptions{}) }},
		{Name: "sharded golden (1x1 == serial)", Sharding: true, Cases: Scenarios(), want: serialGolden,
			run: solo(func(s Scenario) (*Trace, error) {
				return s.Run(mrf.SolveOptions{Shards: shard.Geometry{Rows: 1, Cols: 1}})
			})},
		{Name: "sharded checkpoint resume", Sharding: true, Cases: apps,
			run: func(s Scenario) (*Trace, *Trace, error) { return s.runResumed(mrf.SolveOptions{Shards: resumeTiles}) }},
	}
}

// solo adapts a runner that solves no reference of its own.
func solo(run func(Scenario) (*Trace, error)) func(Scenario) (*Trace, *Trace, error) {
	return func(s Scenario) (*Trace, *Trace, error) {
		tr, err := run(s)
		return tr, nil, err
	}
}

// ownGolden is the scenario's checked-in golden file.
func ownGolden(dir string, s Scenario) (string, []byte, error) { return readGolden(dir, s.File()) }

// serialGolden is the checked-in golden of the scenario's app at one worker.
func serialGolden(dir string, s Scenario) (string, []byte, error) {
	return readGolden(dir, Scenario{App: s.App, Workers: 1}.File())
}

func readGolden(dir, name string) (string, []byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return name, nil, fmt.Errorf("%s missing (regenerate with -update-golden): %w", name, err)
	}
	return name, b, nil
}

// Verify runs every case of the gate against the goldens in dir and returns
// one error per failed case, each naming the gate; nil when all match.
func (g Gate) Verify(dir string) []error {
	var errs []error
	for _, s := range g.Cases {
		var (
			ref  string
			want []byte
			err  error
		)
		if g.want != nil {
			ref, want, err = g.want(dir, s)
		}
		if err == nil {
			var tr, own *Trace
			if tr, own, err = g.run(s); err == nil {
				if g.want == nil {
					ref, want = "an uninterrupted run", own.Encode()
				}
				if got := tr.Encode(); !bytes.Equal(got, want) {
					err = fmt.Errorf("%s diverged from %s at byte %d", s, ref, firstDiff(got, want))
				}
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("conformance: %s: %w", g.Name, err))
		}
	}
	return errs
}
