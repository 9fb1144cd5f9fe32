package uq_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"rsu/internal/checkpoint"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/uq"
)

func fillLabels(w, h, labels, salt int) *img.Labels {
	lab := img.NewLabels(w, h)
	for i := range lab.L {
		lab.L[i] = (i*7 + salt) % labels
	}
	return lab
}

// TestAccumulatorCheckpointRoundTrip: capture mid-run, restore into a fresh
// accumulator, finish collecting, and verify counts and marginals match an
// uninterrupted accumulator exactly.
func TestAccumulatorCheckpointRoundTrip(t *testing.T) {
	const w, h, labels = 6, 4, 5
	opts := uq.Options{BurnIn: 2, Thin: 2}
	full, err := uq.NewAccumulator(w, h, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	half, err := uq.NewAccumulator(w, h, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 10; sweep++ {
		lab := fillLabels(w, h, labels, sweep)
		full.Collect(sweep, lab)
		half.Collect(sweep, lab)
	}
	st, err := half.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := uq.NewAccumulator(w, h, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for sweep := 10; sweep < 20; sweep++ {
		lab := fillLabels(w, h, labels, sweep)
		full.Collect(sweep, lab)
		restored.Collect(sweep, lab)
	}
	if full.Samples() != restored.Samples() {
		t.Fatalf("samples %d vs %d", restored.Samples(), full.Samples())
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a, b := full.Histogram(x, y), restored.Histogram(x, y)
			for l := range a {
				if a[l] != b[l] {
					t.Fatalf("count (%d,%d,%d): %d vs %d", x, y, l, b[l], a[l])
				}
			}
		}
	}
	fr, err := full.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Marginals {
		if fr.Marginals[i] != rr.Marginals[i] {
			t.Fatalf("marginal %d differs", i)
		}
	}
}

func TestAccumulatorRestoreRejections(t *testing.T) {
	opts := uq.Options{BurnIn: 1, Thin: 1}
	a, err := uq.NewAccumulator(4, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Collect(1, fillLabels(4, 3, 2, 0))
	st, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	// Shape mismatch.
	b, err := uq.NewAccumulator(5, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Options mismatch.
	c, err := uq.NewAccumulator(4, 3, 2, uq.Options{BurnIn: 3, Thin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(st); err == nil {
		t.Error("options mismatch accepted")
	}
	// Truncation and trailing garbage.
	d, err := uq.NewAccumulator(4, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreState(st[:len(st)-2]); err == nil {
		t.Error("truncated blob accepted")
	}
	if err := d.RestoreState(append(append([]byte(nil), st...), 1)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing-bytes blob: %v", err)
	}
}

// TestRestoreAcceptsLegacyCollectTime: a blob whose reserved word holds a
// collect time, as older snapshots do, still restores, and the time is not
// carried into the resumed accumulator.
func TestRestoreAcceptsLegacyCollectTime(t *testing.T) {
	opts := uq.Options{BurnIn: 0, Thin: 1}
	a, err := uq.NewAccumulator(4, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Collect(0, fillLabels(4, 3, 2, 0))
	st, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	const reserved = 6 * 8 // after w, h, labels, burn-in, thin, samples
	for i := reserved; i < reserved+8; i++ {
		if st[i] != 0 {
			t.Fatalf("reserved word byte %d = %d, want 0", i, st[i])
		}
	}
	binary.LittleEndian.PutUint64(st[reserved:], uint64(time.Hour))
	b, err := uq.NewAccumulator(4, 3, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	res, err := b.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 1 || res.CollectSeconds >= time.Hour.Seconds() {
		t.Fatalf("restored %d samples, %v collect seconds; want 1 sample and no legacy time", res.Samples, res.CollectSeconds)
	}
}

// TestIdenticalRunsWriteIdenticalSnapshots: two identical RSU-G solves with
// a UQ collector write byte-identical encoded snapshots at every checkpoint
// — the collector blob carries no measured time.
func TestIdenticalRunsWriteIdenticalSnapshots(t *testing.T) {
	const seed = 31
	sched := mrf.Schedule{T0: 8, Alpha: 0.95, Iterations: 16}
	run := func() [][]byte {
		prob := testProblem(24, 16)
		acc, err := uq.NewForRun(uq.Options{BurnIn: 2}, prob.W, prob.H, prob.Labels, sched.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		var snaps [][]byte
		_, err = mrf.SolveAuto(prob, factory(seed), sched, mrf.SolveOptions{
			Workers: 2, Collector: acc, CheckpointEvery: 4,
			OnCheckpoint: func(st *mrf.SolverState) error {
				snaps = append(snaps, checkpoint.Encode(&checkpoint.Snapshot{
					App: "uq-test", Sampler: "new", Seed: seed, Schedule: sched, State: *st,
				}))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("snapshot counts %d and %d, want 3 each", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("snapshot %d differs between identical runs", i)
		}
	}
}
