package mrf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// hashSingleton is a pure data term whose entries differ in every bit
// position a misplaced or duplicated write could disturb.
func hashSingleton(x, y, l int) float64 {
	return math.Sin(float64(x*131+y*71+l*17)) * 97.3
}

// checkSinglesDirect builds the float form of tab on first use and fails
// unless it holds Singleton(x, y, l) at base(x, y) + l, bit for bit, for
// every entry.
func checkSinglesDirect(t *testing.T, name string, p *Problem, tab *Tables) {
	t.Helper()
	singles := tab.FloatSingles()
	if len(singles) != p.W*p.H*p.Labels {
		t.Fatalf("%s: %d singles, want %d", name, len(singles), p.W*p.H*p.Labels)
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			for l := 0; l < p.Labels; l++ {
				if got, want := singles[p.base(x, y)+l], p.Singleton(x, y, l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: single (%d,%d,%d) = %v, direct %v", name, x, y, l, got, want)
				}
			}
		}
	}
}

// codeSingleton is a pure data term that qualifies for the code form: the
// magnitude of hashSingleton scaled to [0, 291.9], so about an eighth of its
// entries saturate at 255.
func codeSingleton(x, y, l int) float64 {
	return math.Abs(hashSingleton(x, y, l)) * 3
}

// checkCodesDirect builds the code form of tab on first use and fails
// unless it holds singleCode(Singleton(x, y, l)) at base(x, y) + l for
// every entry.
func checkCodesDirect(t *testing.T, name string, p *Problem, tab *Tables) {
	t.Helper()
	codes := tab.CodeSingles()
	if len(codes) != p.W*p.H*p.Labels {
		t.Fatalf("%s: %d codes, want %d", name, len(codes), p.W*p.H*p.Labels)
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			for l := 0; l < p.Labels; l++ {
				want, ok := singleCode(p.Singleton(x, y, l))
				if got := codes[p.base(x, y)+l]; !ok || got != want {
					t.Fatalf("%s: code (%d,%d,%d) = %d, direct %d (qualifies %v)", name, x, y, l, got, want, ok)
				}
			}
		}
	}
}

// TestBuildTablesColorRuns pins the color-run layout of both forms of the
// data term. For each shape the entry indices base(x, y)+l are a
// permutation of [0, W·H·Labels); every float entry equals Singleton(x, y,
// l) bit for bit, and every code entry its singleCode, from the
// one-goroutine fill and from the banded fill (a row-multiplied copy of
// the shape pushes the table past tableBandFloor), at GOMAXPROCS 1 and 4;
// and every same-color stride-2 run of every row (the segments a checker
// tile gathers) is one contiguous run of the table, color 0 first.
func TestBuildTablesColorRuns(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, w := range []int{1, 2, 3, 8, 9} {
				for _, h := range []int{1, 2, 5} {
					for _, labels := range []int{2, 3, 56} {
						banded := h * (tableBandFloor/(w*labels) + 1)
						for _, hh := range []int{h, banded} {
							p := &Problem{W: w, H: hh, Labels: labels, Singleton: hashSingleton, PairWeight: 1, Dist: Absolute}
							checkColorRuns(t, fmt.Sprintf("%dx%dx%d", w, hh, labels), p)
						}
					}
				}
			}
		})
	}
}

// checkColorRuns checks one shape for TestBuildTablesColorRuns.
func checkColorRuns(t *testing.T, name string, p *Problem) {
	t.Helper()
	n := p.W * p.H * p.Labels
	seen := make([]bool, n)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			for l := 0; l < p.Labels; l++ {
				i := p.base(x, y) + l
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("%s: entry (%d,%d,%d) at index %d: out of range or taken twice", name, x, y, l, i)
				}
				seen[i] = true
			}
		}
		// Color c's run starts where the previous color's ended; each
		// stride-2 step advances one pixel's Labels entries.
		next := y * p.W * p.Labels
		for color := 0; color < 2; color++ {
			for x := (y + color) & 1; x < p.W; x += 2 {
				if b := p.base(x, y); b != next {
					t.Fatalf("%s: pixel (%d,%d) color %d at %d, want %d (runs not contiguous)", name, x, y, color, b, next)
				}
				next += p.Labels
			}
		}
	}
	checkSinglesDirect(t, name, p, p.BuildTables())
	cp := *p
	cp.Singleton = codeSingleton
	checkCodesDirect(t, name+" codes", &cp, cp.BuildTables())
}

// tableBuildShapes returns grid shapes (W, H, Labels) for the banded build:
// one-row grids, grids with fewer rows than executors, tables one row below,
// at and one row above tableBandFloor, and random shapes on either side of it.
func tableBuildShapes(r *rand.Rand) [][3]int {
	const rows, labels = 8, 2
	w := tableBandFloor / (rows * labels)
	shapes := [][3]int{
		{1, 1, 2}, {tableBandFloor, 1, 3}, {7, 2, 5}, {tableBandFloor / 4, 3, 4},
		{w - 1, rows, labels}, {w, rows, labels}, {w + 1, rows, labels},
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [3]int{1 + r.Intn(120), 1 + r.Intn(80), 2 + r.Intn(24)})
	}
	return shapes
}

// TestBuildTablesBandedMatchesDirect: both forms of the data term, from
// BuildTables and from BuildTablesShared, equal a direct per-entry
// evaluation on every shape, at GOMAXPROCS 1 and 4 — the band count never
// shows in either table.
func TestBuildTablesBandedMatchesDirect(t *testing.T) {
	const seed = 1808
	t.Logf("shape seed %d", seed)
	shapes := tableBuildShapes(rand.New(rand.NewSource(seed)))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, s := range shapes {
				p := &Problem{W: s[0], H: s[1], Labels: s[2], Singleton: hashSingleton, PairWeight: 1, Dist: Absolute}
				name := fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
				checkSinglesDirect(t, name, p, p.BuildTables())
				shared, err := p.BuildTablesShared(p.BuildPairLUT())
				if err != nil {
					t.Fatal(err)
				}
				checkSinglesDirect(t, name+" shared", p, shared)
				cp := *p
				cp.Singleton = codeSingleton
				checkCodesDirect(t, name+" codes", &cp, cp.BuildTables())
			}
		})
	}
}

// TestBuildTablesConcurrentCallers: several goroutines first using both
// forms of one shared Tables at once, built by BuildTables and by
// BuildTablesShared, all get the one complete, correct form, built once
// (run under -race by make race-runtime).
func TestBuildTablesConcurrentCallers(t *testing.T) {
	p := &Problem{W: 97, H: 61, Labels: 9, Singleton: codeSingleton, PairWeight: 1, Dist: Absolute}
	if p.W*p.H*p.Labels < tableBandFloor {
		t.Fatal("problem below tableBandFloor would not exercise the banded build")
	}
	shared, err := p.BuildTablesShared(p.BuildPairLUT())
	if err != nil {
		t.Fatal(err)
	}
	tabs := []*Tables{p.BuildTables(), shared}
	const callers = 8
	floats := make([][]float64, callers)
	codes := make([][]uint8, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := tabs[c%2]
			if c%4 < 2 {
				floats[c] = tab.FloatSingles()
			} else {
				codes[c] = tab.CodeSingles()
			}
		}()
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		tab := tabs[c%2]
		if c%4 < 2 && &floats[c][0] != &tab.Singles[0] {
			t.Fatalf("caller %d got a float form other than the one the tables kept", c)
		}
		if c%4 >= 2 && &codes[c][0] != &tab.Codes[0] {
			t.Fatalf("caller %d got a code form other than the one the tables kept", c)
		}
	}
	for i, tab := range tabs {
		checkSinglesDirect(t, fmt.Sprintf("tables %d", i), p, tab)
		checkCodesDirect(t, fmt.Sprintf("tables %d", i), p, tab)
	}
}

// TestBuildTablesBandPanicReachesCaller: a Singleton panic in any band
// surfaces on the goroutine that first uses the form, as from a serial
// fill.
func TestBuildTablesBandPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := &Problem{W: 97, H: 61, Labels: 9, PairWeight: 1, Dist: Absolute,
		Singleton: func(x, y, l int) float64 {
			if y == 60 && x == 96 && l == 8 {
				panic("last entry")
			}
			return 1
		}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "last entry") {
			t.Fatalf("recovered %v, want the Singleton panic", r)
		}
	}()
	p.BuildTables().FloatSingles()
}
