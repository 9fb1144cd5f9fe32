package runopt

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestRegisterInstallsSharedFlags pins the name, default and usage string of
// every flag the solver CLIs share, so their -h output stays put.
func TestRegisterInstallsSharedFlags(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"burnin", "-1", "sweeps discarded before UQ collection (-1 = half the run)"},
		{"checkpoint", "", "snapshot file for checkpoint/resume (empty = off)"},
		{"checkpoint-every", "10", "write a snapshot every N sweeps (<= 0 = only on cancellation)"},
		{"fault-bleed", "0", "per-draw probability of inter-column optical bleed-through"},
		{"fault-dark", "0", "SPAD dark-count rate per time bin (e.g. 1e-6)"},
		{"fault-drift", "0", "fractional quantum-yield loss per draw (photobleaching drift)"},
		{"fault-seed", "0", "fault-stream RNG seed (0 = derive from -seed)"},
		{"fault-stuck", "0", "probability each replica row is stuck dark for the whole run"},
		{"pprof", "", "write a CPU profile to this file"},
		{"resume", "false", "resume from -checkpoint if the file exists (bit-exact continuation)"},
		{"runlog", "", "stream per-sweep stats as JSON Lines to this file (\"-\" = stdout)"},
		{"sampler", "new", "software | new | prev"},
		{"seed", "1", "random seed"},
		{"shards", "", "tile the grid RxC (e.g. 2x2) and run the sharded solver; empty = automatic"},
		{"tfloor", "0", "annealing temperature floor (0 = default 0.0001)"},
		{"thin", "1", "collect every Nth post-burn-in sweep"},
		{"timeout", "0s", "abort the solve after this duration (e.g. 30s, 2m; 0 = no limit)"},
		{"uq", "false", "collect posterior samples; report confidence/entropy maps and a UQ summary"},
		{"workers", "0", "solver workers: 0 = GOMAXPROCS, 1 = serial"},
	}
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	var got []*flag.Flag
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl) })
	if len(got) != len(want) {
		t.Fatalf("Register installed %d flags, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.name || g.DefValue != w.def || g.Usage != w.usage {
			t.Errorf("flag %d = -%s (default %q) %q, want -%s (default %q) %q",
				i, g.Name, g.DefValue, g.Usage, w.name, w.def, w.usage)
		}
	}
}

// TestFlagsReachSchedule proves the -tfloor command-line flag actually lands
// in mrf.Schedule.TFloor, and that omitting it preserves the default floor.
func TestFlagsReachSchedule(t *testing.T) {
	s := mrf.Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	parse(t, "-tfloor", "0.25").Apply(&s)
	if s.TFloor != 0.25 {
		t.Fatalf("TFloor = %v, want 0.25 from the flag", s.TFloor)
	}
	// The floor must actually bite: alpha 0.5 from 8 passes 0.25 at k=6.
	if got := s.Temperature(20); got != 0.25 {
		t.Fatalf("Temperature(20) = %v, want floor 0.25", got)
	}

	s2 := mrf.Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	parse(t).Apply(&s2)
	if s2.TFloor != 0 {
		t.Fatalf("TFloor = %v, want 0 (default) without the flag", s2.TFloor)
	}
	if got := s2.Temperature(100); got != mrf.DefaultTFloor {
		t.Fatalf("default floor = %v, want %v", got, mrf.DefaultTFloor)
	}
}

// TestFlagsInvalidTFloorFailsValidate checks that a negative or NaN -tfloor
// reaches the schedule, where Validate rejects it, instead of the run
// silently keeping the default floor.
func TestFlagsInvalidTFloorFailsValidate(t *testing.T) {
	for _, v := range []string{"-1", "NaN", "+Inf"} {
		s := mrf.Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
		parse(t, "-tfloor", v).Apply(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("-tfloor %s: Validate accepted TFloor %v", v, s.TFloor)
		}
	}
}

// TestStartMapsFlagsToOptions checks that Start turns the flags into the
// complete apps.Options a CLI installs on its params.
func TestStartMapsFlagsToOptions(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	f := parse(t, "-seed", "7", "-workers", "3", "-shards", "2x1",
		"-uq", "-burnin", "4", "-thin", "2", "-fault-dark", "1e-3",
		"-checkpoint", ckpt, "-checkpoint-every", "5", "-resume")
	rt, err := f.Start("stereo", "teddy")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	o := rt.Options
	if o.SamplerFactory == nil || o.SamplerFactory(0) == nil {
		t.Fatal("no sampler factory")
	}
	if o.Workers != 3 || o.Shards != (shard.Geometry{Rows: 2, Cols: 1}) {
		t.Errorf("Workers %d, Shards %+v; want 3 and 2x1", o.Workers, o.Shards)
	}
	if o.UQ == nil || o.UQ.BurnIn != 4 || o.UQ.Thin != 2 {
		t.Errorf("UQ = %+v, want burn-in 4, thin 2", o.UQ)
	}
	if o.Faults == nil || o.Faults.DarkCountPerBin != 1e-3 || o.Faults.Seed != 7 {
		t.Errorf("Faults = %+v, want dark 1e-3 seeded from -seed 7", o.Faults)
	}
	if pl := o.Checkpoint; pl == nil || pl.Path != ckpt || pl.Every != 5 || !pl.Resume ||
		pl.App != "stereo" || pl.Sampler != "new" || pl.Seed != 7 {
		t.Errorf("Checkpoint = %+v, want %s every 5, resume, stamped (stereo, new, 7)", pl, ckpt)
	}
	if o.Ctx == nil || o.Ctx.Err() != nil {
		t.Error("Ctx missing or already done")
	}
	if o.OnSweep != nil {
		t.Error("OnSweep set without -runlog")
	}

	// Without the optional flags the options stay off.
	plain, err := parse(t).Start("flow", "venus")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if p := plain.Options; p.UQ != nil || p.Faults != nil || p.Checkpoint != nil || p.Shards != (shard.Geometry{}) {
		t.Errorf("default options %+v, want UQ, Faults, Checkpoint and Shards off", p)
	}
}

// TestStartErrorsLeaveNothingOpen feeds Start each invalid flag combination
// alongside -pprof and -runlog outputs and checks it fails before creating
// either file, or — when the run log itself cannot be opened — that it
// stops the profile and closes its file again.
func TestStartErrorsLeaveNothingOpen(t *testing.T) {
	dir := t.TempDir()
	prof, rlog := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "run.jsonl")
	outputs := []string{"-pprof", prof, "-runlog", rlog}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"resume without checkpoint", []string{"-resume"}, "-resume requires -checkpoint"},
		{"faults on software", []string{"-sampler", "software", "-fault-dark", "1e-3"}, "requires a hardware sampler"},
		{"bad shards", []string{"-shards", "0x3"}, "-shards"},
		{"unknown sampler", []string{"-sampler", "bogus"}, "bogus"},
		{"bad fault rate", []string{"-fault-dark", "-1"}, "fault"},
	}
	fds := openFDs(t)
	for _, c := range cases {
		rt, err := parse(t, append(c.args, outputs...)...).Start("stereo", "teddy")
		if err == nil {
			rt.Close()
			t.Errorf("%s: Start accepted %v", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.want)
		}
		for _, p := range []string{prof, rlog} {
			if _, err := os.Stat(p); err == nil {
				t.Errorf("%s: Start created %s before failing", c.name, p)
			}
		}
	}

	_, err := parse(t, "-pprof", prof, "-runlog", filepath.Join(dir, "missing", "run.jsonl")).Start("stereo", "teddy")
	if err == nil || !strings.Contains(err.Error(), "-runlog") {
		t.Fatalf("unopenable -runlog: err = %v", err)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("failed Start left the CPU profile running: %v", err)
	}
	pprof.StopCPUProfile()
	if got := openFDs(t); fds >= 0 && got != fds {
		t.Errorf("open file descriptors %d after failed Starts, want %d", got, fds)
	}
}

// openFDs counts this process's open file descriptors, or returns -1 where
// the OS does not list them.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestTimeoutContext checks that -timeout produces a context whose deadline
// expires, and that no flag means an unbounded (but cancellable) context.
func TestTimeoutContext(t *testing.T) {
	r, err := parse(t, "-timeout", "1ms").Start("stereo", "teddy")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	select {
	case <-r.Options.Ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("1ms timeout context never expired")
	}
	if err := r.Options.Ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("context error = %v, want DeadlineExceeded", err)
	}

	unbounded, err := parse(t).Start("stereo", "teddy")
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Options.Ctx.Err() != nil {
		t.Fatal("unbounded context already done")
	}
	unbounded.Close()
	if unbounded.Options.Ctx.Err() == nil {
		t.Fatal("Close must cancel the context")
	}
}

// TestRunLogWritesJSONL drives a real solve through the runtime's OnSweep
// hook and checks the JSONL output parses, one record per sweep.
func TestRunLogWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r, err := parse(t, "-runlog", path).Start("test", "test-run")
	if err != nil {
		t.Fatal(err)
	}

	prob := &mrf.Problem{
		W: 6, H: 4, Labels: 2,
		Singleton:  func(x, y, l int) float64 { return float64(l) },
		PairWeight: 1, Dist: mrf.Binary,
	}
	const sweeps = 5
	sampler := func(int) core.LabelSampler { return core.NewSoftwareSampler(rng.NewXoshiro256(1)) }
	_, err = mrf.Solve(r.Options.Ctx, prob, sampler,
		mrf.Schedule{T0: 2, Alpha: 0.9, Iterations: sweeps},
		mrf.SolveOptions{Workers: 1, OnSweep: r.Options.OnSweep})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sc := bufio.NewScanner(rf)
	n := 0
	for sc.Scan() {
		var rec struct {
			Run       string  `json:"run"`
			Sweep     int     `json:"sweep"`
			T         float64 `json:"temperature"`
			Energy    float64 `json:"energy"`
			Flips     int     `json:"flips"`
			ElapsedNs int64   `json:"elapsed_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Run != "test-run" || rec.Sweep != n || rec.T <= 0 {
			t.Fatalf("line %d: unexpected record %+v", n, rec)
		}
		n++
	}
	if n != sweeps {
		t.Fatalf("run log has %d records, want %d", n, sweeps)
	}
}

// failWriter fails every write, like a file on a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestRunLogWriteFailureFailsClose runs a solve whose run log and CPU profile
// both write to a failing writer: the solve itself must succeed, Close must
// return both write errors, and a second Close must return nil.
func TestRunLogWriteFailureFailsClose(t *testing.T) {
	r, err := parse(t).Start("test", "fail")
	if err != nil {
		t.Fatal(err)
	}
	r.log = mrf.NewRunLog(failWriter{})
	if err := r.startProfile(failWriter{}); err != nil {
		t.Fatal(err)
	}
	prob := &mrf.Problem{
		W: 6, H: 4, Labels: 2,
		Singleton:  func(x, y, l int) float64 { return float64(l) },
		PairWeight: 1, Dist: mrf.Binary,
	}
	sampler := func(int) core.LabelSampler { return core.NewSoftwareSampler(rng.NewXoshiro256(1)) }
	if _, err := mrf.Solve(r.Options.Ctx, prob, sampler,
		mrf.Schedule{T0: 2, Alpha: 0.9, Iterations: 3},
		mrf.SolveOptions{Workers: 1, OnSweep: r.log.Hook("fail", nil)}); err != nil {
		t.Fatalf("a failing run log aborted the solve: %v", err)
	}
	err = r.Close()
	for _, want := range []string{"-runlog: injected write failure", "-pprof: injected write failure"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Close error %v, want it to contain %q", err, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
