package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateTable pins the trace-gate table: a row cannot drop, be renamed or
// lose cases without this test noticing.
func TestGateTable(t *testing.T) {
	want := []struct {
		name     string
		sharding bool
		cases    int
	}{
		{"golden", false, 12},
		{"golden (zero-fault injection)", false, 12},
		{"golden (checkpoint resume)", false, 12},
		{"sharded golden (1x1 == serial)", true, 12},
		{"sharded checkpoint resume", true, 4},
	}
	gates := Gates()
	if len(gates) != len(want) {
		t.Fatalf("gate table has %d rows, want %d", len(gates), len(want))
	}
	for i, w := range want {
		g := gates[i]
		if g.Name != w.name || g.Sharding != w.sharding || len(g.Cases) != w.cases {
			t.Errorf("row %d = {%q sharding %v, %d cases}, want {%q sharding %v, %d cases}",
				i, g.Name, g.Sharding, len(g.Cases), w.name, w.sharding, w.cases)
		}
	}
}

// TestGatesReportCorruptGoldens shows the trace gates can fail: against a
// copy of the goldens with one byte flipped in one file and another file
// deleted, every file-backed gate must report both files and name itself,
// while the gate whose reference is an uninterrupted run still passes.
func TestGatesReportCorruptGoldens(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The w1 files: the 1x1-sharded gate compares every scenario with them.
	flipped, deleted := filepath.Join(dir, "stereo_w1.golden"), filepath.Join(dir, "flow_w1.golden")
	b, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(flipped, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(deleted); err != nil {
		t.Fatal(err)
	}

	for _, g := range Gates() {
		errs := g.Verify(dir)
		if g.Name == "sharded checkpoint resume" {
			for _, err := range errs {
				t.Errorf("%s reads no golden file but failed: %v", g.Name, err)
			}
			continue
		}
		for _, file := range []string{"stereo_w1.golden", "flow_w1.golden"} {
			found := false
			for _, err := range errs {
				found = found || strings.Contains(err.Error(), file)
			}
			if !found {
				t.Errorf("%s: no error names %s (got %v)", g.Name, file, errs)
			}
		}
		for _, err := range errs {
			if !strings.Contains(err.Error(), g.Name+":") {
				t.Errorf("error %q does not name gate %q", err, g.Name)
			}
		}
	}
}
