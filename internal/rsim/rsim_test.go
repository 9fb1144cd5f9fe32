package rsim

import (
	"context"
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/ret"
	"rsu/internal/rng"
)

func TestSteadyStateThroughputOneLabelPerCycle(t *testing.T) {
	// Both designs must sustain one label evaluation per cycle: total
	// cycles approach labels-issued as the run grows.
	for _, mk := range []func(int) PipelineConfig{PrevPipeline, NewPipeline} {
		cfg := mk(56)
		st, err := SimulateSweeps(cfg, 500, 4)
		if err != nil {
			t.Fatal(err)
		}
		if st.StructStalls != 0 {
			t.Errorf("%s: %d structural stalls with full replication", cfg.Name, st.StructStalls)
		}
		if st.ThroughputCPL > 1.01 {
			t.Errorf("%s: %.4f cycles/label, want ~1", cfg.Name, st.ThroughputCPL)
		}
	}
}

func TestPrevPipelineLatencyFormula(t *testing.T) {
	// Paper Sec. II-C: total latency is 7 + (M-1) for M labels.
	for _, m := range []int{5, 30, 49, 64} {
		st, err := SimulateSweeps(PrevPipeline(m), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(7 + (m - 1))
		if st.VariableLat != want {
			t.Errorf("M=%d: latency %d, want %d", m, st.VariableLat, want)
		}
	}
}

func TestNewPipelineLatencyGrowsButThroughputHolds(t *testing.T) {
	m := 30
	prev, _ := SimulateSweeps(PrevPipeline(m), 200, 2)
	nu, _ := SimulateSweeps(NewPipeline(m), 200, 2)
	if nu.VariableLat <= prev.VariableLat {
		t.Errorf("new latency %d should exceed prev %d (FIFO fill)", nu.VariableLat, prev.VariableLat)
	}
	// Steady-state cycles must be nearly identical (same 1 label/cycle).
	if math.Abs(float64(nu.Cycles-prev.Cycles)) > 0.02*float64(prev.Cycles) {
		t.Errorf("cycle totals diverge: new %d vs prev %d", nu.Cycles, prev.Cycles)
	}
}

func TestStructuralHazardWithoutReplication(t *testing.T) {
	cfg := PrevPipeline(30)
	cfg.Replicas = 1 // 4-cycle window, one circuit: 3 stall cycles per label
	st, err := SimulateSweeps(cfg, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.StructStalls == 0 {
		t.Fatal("expected structural stalls with a single RET circuit")
	}
	if st.ThroughputCPL < 3.5 {
		t.Errorf("throughput %.2f cycles/label; a 4-cycle window on 1 replica should cost ~4", st.ThroughputCPL)
	}
}

func TestTempUpdateStalls(t *testing.T) {
	prev := PrevPipeline(10)
	// 1024-bit LUT over an 8-bit interface: 128 writes, 127 stall cycles.
	if got := prev.TempUpdateStall(); got != 127 {
		t.Errorf("prev stall = %d, want 127", got)
	}
	nu := NewPipeline(10)
	if got := nu.TempUpdateStall(); got != 0 {
		t.Errorf("new (double-buffered) stall = %d, want 0", got)
	}
	unbuf := nu
	unbuf.DoubleBuffered = false
	// 32-bit boundaries over an 8-bit interface: 4 writes, 3 stall cycles
	// (paper Sec. IV-B-3).
	if got := unbuf.TempUpdateStall(); got != 3 {
		t.Errorf("unbuffered new stall = %d, want 3", got)
	}
}

func TestTempStallsAccumulatePerSweep(t *testing.T) {
	cfg := PrevPipeline(8)
	st, err := SimulateSweeps(cfg, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.TempStalls != 5*127 {
		t.Errorf("temp stalls %d, want %d", st.TempStalls, 5*127)
	}
	nu, _ := SimulateSweeps(NewPipeline(8), 10, 5)
	if nu.TempStalls != 0 {
		t.Errorf("new design temp stalls %d, want 0", nu.TempStalls)
	}
}

func TestValidateRejectsBadPipelines(t *testing.T) {
	bad := NewPipeline(10)
	bad.FIFODepth = 5
	if _, err := SimulateSweeps(bad, 1, 1); err == nil {
		t.Error("FIFO smaller than label count must error")
	}
	if _, err := SimulateSweeps(PrevPipeline(0), 1, 1); err == nil {
		t.Error("zero labels must error")
	}
	if _, err := SimulateSweeps(PrevPipeline(5), 0, 1); err == nil {
		t.Error("zero variables must error")
	}
}

func TestMachineRequiresNewDesign(t *testing.T) {
	if _, err := NewMachine(core.PrevRSUG(), ret.SPAD{}, rng.NewSplitMix64(1)); err == nil {
		t.Error("Machine must reject the previous design configuration")
	}
	if _, err := NewMachine(core.NewRSUG(), ret.SPAD{}, nil); err == nil {
		t.Error("nil source must error")
	}
}

func TestMachineMatchesFunctionalModelDistribution(t *testing.T) {
	// The device-level machine and the functional Unit must choose labels
	// with closely matching frequencies on a fixed energy vector.
	cfg := core.NewRSUG()
	machine, err := NewMachine(cfg, ret.SPAD{}, rng.NewXoshiro256(1))
	if err != nil {
		t.Fatal(err)
	}
	unit := core.MustUnit(cfg, rng.NewXoshiro256(2), false)
	core.MustSetTemperature(machine, 40)
	core.MustSetTemperature(unit, 40)
	energies := []float64{5, 30, 60, 120}
	const n = 60000
	cm := make([]float64, 4)
	cu := make([]float64, 4)
	for i := 0; i < n; i++ {
		cm[core.MustSample(machine, energies, 0)]++
		cu[core.MustSample(unit, energies, 0)]++
	}
	for i := range cm {
		dm, du := cm[i]/n, cu[i]/n
		if math.Abs(dm-du) > 0.012 {
			t.Errorf("label %d: machine %.4f vs unit %.4f", i, dm, du)
		}
	}
}

func TestMachineCycleAccounting(t *testing.T) {
	m, err := NewMachine(core.NewRSUG(), ret.SPAD{}, rng.NewXoshiro256(3))
	if err != nil {
		t.Fatal(err)
	}
	energies := []float64{0, 50, 100}
	for i := 0; i < 10; i++ {
		m.Sample(energies, 0)
	}
	if m.Cycles() != 30 {
		t.Errorf("cycles = %d, want 30 (one per label)", m.Cycles())
	}
	st := m.DeviceStats()
	if st.Activations == 0 || st.Activations > 30 {
		t.Errorf("activations = %d, want in (0, 30]", st.Activations)
	}
}

func TestMachineBleedThroughStaysAtDesignTarget(t *testing.T) {
	// Under sustained full-rate sampling the 8-row rotation must keep
	// contamination near the 0.4% design point.
	m, err := NewMachine(core.NewRSUG(), ret.SPAD{}, rng.NewXoshiro256(4))
	if err != nil {
		t.Fatal(err)
	}
	m.SetTemperature(20)
	energies := []float64{0, 10, 20, 30, 40, 50}
	for i := 0; i < 20000; i++ {
		m.Sample(energies, 0)
	}
	st := m.DeviceStats()
	rate := float64(st.BleedThru) / float64(st.Activations)
	if rate > 0.01 {
		t.Errorf("bleed-through rate %.4f exceeds ~0.4%% design target", rate)
	}
}

func TestMachineSolvesMRF(t *testing.T) {
	// End-to-end: a small two-region segmentation solved entirely on the
	// device model must recover the regions.
	p := &mrf.Problem{
		W: 10, H: 8, Labels: 2,
		Singleton: func(x, y, l int) float64 {
			inRight := x >= 5
			if (l == 1) == inRight {
				return 0
			}
			return 12
		},
		PairWeight: 3,
		Dist:       mrf.Binary,
	}
	m, err := NewMachine(core.NewRSUG(), ret.SPAD{}, rng.NewXoshiro256(5))
	if err != nil {
		t.Fatal(err)
	}
	one := func(int) core.LabelSampler { return m }
	lab, err := mrf.Solve(context.Background(), p, one, mrf.Schedule{T0: 6, Alpha: 0.85, Iterations: 40}, mrf.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 10; x++ {
			want := 0
			if x >= 5 {
				want = 1
			}
			if lab.At(x, y) != want {
				wrong++
			}
		}
	}
	if wrong > 4 {
		t.Fatalf("device-model solve mislabeled %d/80 pixels", wrong)
	}
}
