package conformance

import (
	"strings"
	"testing"

	"rsu/internal/shard"
)

// TestShardBattery runs the differential chi-square battery at a reduced
// replicate count — cmd/rsu-verify runs the full-strength version.
func TestShardBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("sharding chi-square battery is not short")
	}
	rep, err := RunShardBattery(DefaultShardDesigns(), ShardOptions{Replicates: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantTests := 0
	for _, d := range DefaultShardDesigns() {
		wantTests += d.W * d.H
	}
	if len(rep.Checks) != wantTests {
		t.Fatalf("battery ran %d tests, want %d", len(rep.Checks), wantTests)
	}
	for _, f := range rep.Failures() {
		t.Errorf("sharded vs whole-grid checkerboard marginals diverge: %s p=%.3g < %.3g (n=%d per arm)",
			f.Name, f.P, rep.Threshold, f.N)
	}
	t.Logf("sharding battery: %d tests, min p = %.4g, threshold %.3g", len(rep.Checks), rep.MinP(), rep.Threshold)
}

// TestShardBatteryRejectsBadGeometry checks design validation surfaces as a
// setup error, not a statistical failure.
func TestShardBatteryRejectsBadGeometry(t *testing.T) {
	bad := []ShardDesign{{Name: "too-fine", W: 3, H: 3, Labels: 2,
		Geom: shard.Geometry{Rows: 4, Cols: 1}, T: 8, Sweeps: 2}}
	if _, err := RunShardBattery(bad, ShardOptions{Replicates: 2, Seed: 1}); err == nil {
		t.Fatal("expected geometry validation error")
	} else if !strings.Contains(err.Error(), "too-fine") {
		t.Fatalf("error %q does not name the offending design", err)
	}
}
