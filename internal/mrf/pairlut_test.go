package mrf

import (
	"testing"
)

// TestBuildPairLUTMatchesTables: the standalone pairwise LUT must be
// byte-identical to the one BuildTables embeds.
func TestBuildPairLUTMatchesTables(t *testing.T) {
	for pi, p := range tablesTestProblems() {
		lut := p.BuildPairLUT()
		tab := p.BuildTables()
		if lut.Labels != p.Labels || len(lut.Pair) != p.Labels*p.Labels {
			t.Fatalf("problem %d: LUT shape %d/%d, want %d/%d", pi, lut.Labels, len(lut.Pair), p.Labels, p.Labels*p.Labels)
		}
		for i, v := range lut.Pair {
			if tab.Pair[i] != v {
				t.Fatalf("problem %d pair[%d]: standalone %v, embedded %v", pi, i, v, tab.Pair[i])
			}
		}
	}
}

// TestBuildTablesShared: sharing a pre-built LUT must give tables that
// evaluate identically to freshly built ones, reuse the LUT's storage, and
// reject a LUT built for a different label count.
func TestBuildTablesShared(t *testing.T) {
	probs := tablesTestProblems()
	for pi, p := range probs {
		lut := p.BuildPairLUT()
		shared, err := p.BuildTablesShared(lut)
		if err != nil {
			t.Fatalf("problem %d: BuildTablesShared: %v", pi, err)
		}
		fresh := p.BuildTables()
		if &shared.Pair[0] != &lut.Pair[0] {
			t.Fatalf("problem %d: shared tables copied the pair LUT instead of aliasing it", pi)
		}
		for i := range fresh.Pair {
			if shared.Pair[i] != fresh.Pair[i] {
				t.Fatalf("problem %d pair[%d]: shared %v, fresh %v", pi, i, shared.Pair[i], fresh.Pair[i])
			}
		}
		sharedSingles, freshSingles := shared.FloatSingles(), fresh.FloatSingles()
		for i := range freshSingles {
			if sharedSingles[i] != freshSingles[i] {
				t.Fatalf("problem %d single[%d]: shared %v, fresh %v", pi, i, sharedSingles[i], freshSingles[i])
			}
		}
	}

	// A nil LUT degrades to BuildTables.
	if tab, err := probs[0].BuildTablesShared(nil); err != nil || tab == nil {
		t.Fatalf("nil LUT: tables %v err %v, want fresh tables", tab, err)
	}

	// Label-count mismatch must be rejected, not silently mis-indexed.
	wrong := probs[2] // 3 labels vs probs[0]'s 6
	if _, err := probs[0].BuildTablesShared(wrong.BuildPairLUT()); err == nil {
		t.Fatal("BuildTablesShared accepted a LUT for the wrong label count")
	}
}
