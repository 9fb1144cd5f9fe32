package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
)

// RunCheckpointResume executes the scenario in two legs against the golden
// trace: the head leg checkpoints at the schedule midpoint and is then
// cancelled (exercising BOTH the periodic and the on-cancel capture paths,
// whose snapshots must agree byte-for-byte — nothing advances between them),
// and the tail leg resumes from the snapshot after a full container
// encode/decode round trip, as a restarted process would. The returned trace
// splices the head leg's per-sweep energies with the tail leg's; it must be
// byte-identical to the uninterrupted golden.
func (s Scenario) RunCheckpointResume() (*Trace, error) {
	prob, sched, init, err := goldenProblem(s.App)
	if err != nil {
		return nil, err
	}
	factory := core.StreamFactory(goldenSeed, func(src rng.Source) core.LabelSampler {
		return core.MustUnit(core.NewRSUG(), src, true)
	})
	mid := sched.Iterations / 2
	tr := &Trace{App: s.App, Workers: s.Workers}

	// Head leg: solve to the midpoint checkpoint, then cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var containers [][]byte
	_, err = mrf.SolveAutoCtx(ctx, prob, factory, sched, mrf.SolveOptions{
		Init:    init,
		Workers: s.Workers,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
		CheckpointEvery: mid,
		OnCheckpoint: func(st *mrf.SolverState) error {
			containers = append(containers, checkpoint.Encode(&checkpoint.Snapshot{
				App: s.App, Seed: goldenSeed, Schedule: sched, State: *st,
			}))
			if len(containers) == 1 {
				cancel()
			}
			return nil
		},
	})
	if err == nil {
		return nil, fmt.Errorf("conformance: checkpoint %s: head leg ran to completion instead of cancelling", s.File())
	}
	if !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("conformance: checkpoint %s: head leg: %w", s.File(), err)
	}
	if len(containers) != 2 {
		return nil, fmt.Errorf("conformance: checkpoint %s: expected a periodic and an on-cancel snapshot, got %d", s.File(), len(containers))
	}
	if !bytes.Equal(containers[0], containers[1]) {
		return nil, fmt.Errorf("conformance: checkpoint %s: periodic and on-cancel snapshots differ — capture is not a pure function of solver state", s.File())
	}
	if len(tr.Energy) != mid {
		return nil, fmt.Errorf("conformance: checkpoint %s: head leg logged %d sweeps, want %d", s.File(), len(tr.Energy), mid)
	}

	// Tail leg: decode the container (full persistence round trip) and
	// resume on freshly built samplers.
	snap, err := checkpoint.Decode(containers[0])
	if err != nil {
		return nil, fmt.Errorf("conformance: checkpoint %s: %w", s.File(), err)
	}
	if snap.State.NextSweep != mid {
		return nil, fmt.Errorf("conformance: checkpoint %s: snapshot resumes at sweep %d, want %d", s.File(), snap.State.NextSweep, mid)
	}
	lab, err := mrf.SolveAutoCtx(context.Background(), prob, factory, sched, mrf.SolveOptions{
		Init:    init,
		Workers: s.Workers,
		Resume:  &snap.State,
		OnSweep: func(iter int, lab *img.Labels, st mrf.SolveStats) {
			tr.Energy = append(tr.Energy, prob.TotalEnergy(lab))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: checkpoint %s: tail leg: %w", s.File(), err)
	}
	if len(tr.Energy) != sched.Iterations {
		return nil, fmt.Errorf("conformance: checkpoint %s: spliced log has %d sweeps, want %d", s.File(), len(tr.Energy), sched.Iterations)
	}
	tr.Labels = lab
	return tr, nil
}

// VerifyCheckpointResume runs every golden scenario through the
// checkpoint/cancel/resume cycle and compares the spliced trace byte-for-byte
// against the checked-in goldens — the bit-exact resume guarantee, gated over
// all applications and worker counts exactly like the primary traces.
func VerifyCheckpointResume(dir string) []error {
	var errs []error
	for _, s := range Scenarios() {
		tr, err := s.RunCheckpointResume()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(dir, s.File()))
		if err != nil {
			errs = append(errs, fmt.Errorf("conformance: golden %s missing (regenerate with -update-golden): %w", s.File(), err))
			continue
		}
		if got := tr.Encode(); !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("conformance: checkpoint resume diverged from golden %s at byte %d — resume is not bit-exact",
				s.File(), firstDiff(got, want)))
		}
	}
	return errs
}
