package runopt

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
)

// TestFlagsReachSchedule proves the -tfloor command-line flag actually lands
// in mrf.Schedule.TFloor, and that omitting it preserves the default floor.
func TestFlagsReachSchedule(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-tfloor", "0.25"}); err != nil {
		t.Fatal(err)
	}
	s := mrf.Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	f.Apply(&s)
	if s.TFloor != 0.25 {
		t.Fatalf("TFloor = %v, want 0.25 from the flag", s.TFloor)
	}
	// The floor must actually bite: alpha 0.5 from 8 passes 0.25 at k=6.
	if got := s.Temperature(20); got != 0.25 {
		t.Fatalf("Temperature(20) = %v, want floor 0.25", got)
	}

	var def Flags
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	def.Register(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s2 := mrf.Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	def.Apply(&s2)
	if s2.TFloor != 0 {
		t.Fatalf("TFloor = %v, want 0 (default) without the flag", s2.TFloor)
	}
	if got := s2.Temperature(100); got != mrf.DefaultTFloor {
		t.Fatalf("default floor = %v, want %v", got, mrf.DefaultTFloor)
	}
}

// TestTimeoutContext checks that -timeout produces a context whose deadline
// expires, and that no flag means an unbounded (but cancellable) context.
func TestTimeoutContext(t *testing.T) {
	f := Flags{Timeout: time.Millisecond}
	r, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	select {
	case <-r.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("1ms timeout context never expired")
	}
	if err := r.Context().Err(); err != context.DeadlineExceeded {
		t.Fatalf("context error = %v, want DeadlineExceeded", err)
	}

	unbounded, err := (&Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Context().Err() != nil {
		t.Fatal("unbounded context already done")
	}
	unbounded.Close()
	if unbounded.Context().Err() == nil {
		t.Fatal("Close must cancel the context")
	}
}

// TestRunLogWritesJSONL drives a real solve through the runtime's hook and
// checks the JSONL output parses, one record per sweep.
func TestRunLogWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f := Flags{RunLog: path}
	r, err := f.Start()
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
	_, err = mrf.Solve(r.Context(), prob, sampler,
		mrf.Schedule{T0: 2, Alpha: 0.9, Iterations: sweeps},
		mrf.SolveOptions{Workers: 1, OnSweep: r.Hook("test-run", nil)})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

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
