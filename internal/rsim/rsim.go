// Package rsim is a cycle-level simulator of the RSU-G pipelines: the
// previous 5-stage design (Fig. 2b) and the new FIFO-decoupled design
// (Fig. 10). It accounts for label issue (one per cycle in steady state),
// the E_min FIFO decoupling, RET-circuit replica occupancy (the multi-cycle
// sampling stage that forces replication to avoid structural hazards), the
// selection stage, and converter-state rewrites on simulated-annealing
// temperature updates (a full LUT rewrite in the previous design versus
// double-buffered boundary registers in the new one).
//
// The simulator validates the paper's architectural claims — steady-state
// throughput of one label evaluation per cycle, per-variable latency, and
// stall-free temperature updates — and supplies cycle counts to the Table II
// performance model.
package rsim

import "fmt"

// PipelineConfig describes one RSU-G pipeline variant.
type PipelineConfig struct {
	Name string
	// Labels is M, the number of candidate labels per variable.
	Labels int
	// FrontStages is the number of pipeline stages before the sampling
	// stage (input/decrement, energy, conversion...).
	FrontStages int
	// WindowCycles is the RET observation window in clock cycles
	// (2^Time_bits time bins / bins-per-cycle).
	WindowCycles int
	// Replicas is the number of RET circuit replicas available to overlap
	// sampling windows. Replicas >= WindowCycles sustains 1 label/cycle.
	Replicas int
	// SelectStages is the number of stages after sampling (selection).
	SelectStages int
	// UsesFIFO enables the new design's E_min FIFO: the back-end of the
	// pipeline cannot start draining a variable until all of its label
	// energies are enqueued (E_min known), adding Labels cycles of
	// per-variable latency without hurting steady-state throughput.
	UsesFIFO bool
	// FIFODepth is the energy FIFO capacity in entries (>= Labels needed
	// for stall-free decoupling).
	FIFODepth int
	// ConverterBits is the converter state rewritten on a temperature
	// update (1024 for the 256x4 LUT, 32 for four 8-bit boundaries).
	ConverterBits int
	// UpdateInterfaceBits is the width of the update interface (8).
	UpdateInterfaceBits int
	// DoubleBuffered overlaps converter updates with sampling so
	// temperature changes cost zero stall cycles.
	DoubleBuffered bool
}

// PrevPipeline returns the previous RSU-G pipeline configuration for M
// labels: 5 stages, 4 RET circuit replicas over a 4-cycle window, LUT-based
// conversion rewritten synchronously.
func PrevPipeline(labels int) PipelineConfig {
	return PipelineConfig{
		Name:   "prev-RSUG",
		Labels: labels,
		// Energy computation and energy-to-intensity LUT; the label
		// decrement stage is the issue cycle itself, matching the paper's
		// 7 + (M-1) latency accounting.
		FrontStages:         2,
		WindowCycles:        4,
		Replicas:            4,
		SelectStages:        1,
		ConverterBits:       256 * 4,
		UpdateInterfaceBits: 8,
		DoubleBuffered:      false,
	}
}

// NewPipeline returns the new RSU-G pipeline configuration for M labels:
// FIFO-decoupled front end, comparison-based conversion with double-buffered
// boundary registers, 4 RET circuit replicas over a 4-cycle window.
func NewPipeline(labels int) PipelineConfig {
	return PipelineConfig{
		Name:   "new-RSUG",
		Labels: labels,
		// Energy computation, FIFO insert/E_min, subtract/scale, boundary
		// comparison; issue is the input stage.
		FrontStages:         4,
		WindowCycles:        4,
		Replicas:            4,
		SelectStages:        1,
		UsesFIFO:            true,
		FIFODepth:           64, // supports the 64-label maximum
		ConverterBits:       4 * 8,
		UpdateInterfaceBits: 8,
		DoubleBuffered:      true,
	}
}

// Validate reports configuration errors.
func (c PipelineConfig) Validate() error {
	switch {
	case c.Labels < 1:
		return fmt.Errorf("rsim: need at least 1 label")
	case c.FrontStages < 1 || c.SelectStages < 1:
		return fmt.Errorf("rsim: stage counts must be positive")
	case c.WindowCycles < 1 || c.Replicas < 1:
		return fmt.Errorf("rsim: window and replicas must be positive")
	case c.UsesFIFO && c.FIFODepth < c.Labels:
		return fmt.Errorf("rsim: FIFO depth %d cannot hold %d labels", c.FIFODepth, c.Labels)
	case c.ConverterBits < 1 || c.UpdateInterfaceBits < 1:
		return fmt.Errorf("rsim: converter/interface bits must be positive")
	}
	return nil
}

// TempUpdateStall returns the pipeline stall cycles charged per temperature
// update: the converter rewrite serialized over the update interface, minus
// the one write that overlaps the first new evaluation — or zero when the
// update is double-buffered behind a shadow register set.
func (c PipelineConfig) TempUpdateStall() int64 {
	if c.DoubleBuffered {
		return 0
	}
	writes := (c.ConverterBits + c.UpdateInterfaceBits - 1) / c.UpdateInterfaceBits
	if writes <= 1 {
		return 0
	}
	return int64(writes - 1)
}

// Stats summarizes a simulated run.
type Stats struct {
	Cycles        int64 // total cycles from first issue to last selection
	LabelsIssued  int64
	Variables     int64
	StructStalls  int64 // cycles lost waiting for a free RET replica
	TempStalls    int64 // cycles lost to converter rewrites
	VariableLat   int64 // latency of a single variable in steady state
	ThroughputCPL float64
}

// SimulateSweeps runs `sweeps` full Gibbs sweeps over `variables` random
// variables, with a temperature update before each sweep (simulated
// annealing), and returns the cycle accounting.
func SimulateSweeps(c PipelineConfig, variables, sweeps int) (Stats, error) {
	if err := c.Validate(); err != nil {
		return Stats{}, err
	}
	if variables < 1 || sweeps < 1 {
		return Stats{}, fmt.Errorf("rsim: variables and sweeps must be positive")
	}
	var st Stats
	// replicaFree[i] is the cycle at which RET replica i becomes free.
	replicaFree := make([]int64, c.Replicas)
	var cycle int64 // front-end issue clock
	var lastDone int64
	lastSampleStart := int64(-1) // the sampling stage accepts one label/cycle

	for s := 0; s < sweeps; s++ {
		stall := c.TempUpdateStall()
		st.TempStalls += stall
		cycle += stall
		for v := 0; v < variables; v++ {
			st.Variables++
			var firstIssue, lastSelect int64
			for l := 0; l < c.Labels; l++ {
				issue := cycle
				if l == 0 {
					firstIssue = issue
				}
				// The label reaches the sampling stage FrontStages
				// cycles after issue; the FIFO adds a full variable's
				// worth of fill delay before draining can begin.
				ready := issue + int64(c.FrontStages)
				if c.UsesFIFO {
					// E_min of this variable is known only after its
					// last label enters the FIFO.
					lastInsert := firstIssue + int64(c.Labels-1) + int64(c.FrontStages) - 1
					if ready <= lastInsert {
						ready = lastInsert + 1
					}
				}
				if ready <= lastSampleStart {
					ready = lastSampleStart + 1
				}
				// Acquire the least-loaded RET replica.
				best := 0
				for i := 1; i < c.Replicas; i++ {
					if replicaFree[i] < replicaFree[best] {
						best = i
					}
				}
				start := ready
				if replicaFree[best] > start {
					st.StructStalls += replicaFree[best] - start
					start = replicaFree[best]
				}
				lastSampleStart = start
				replicaFree[best] = start + int64(c.WindowCycles)
				done := start + int64(c.WindowCycles) + int64(c.SelectStages)
				if done > lastSelect {
					lastSelect = done
				}
				st.LabelsIssued++
				cycle++
			}
			if v == variables-1 && s == sweeps-1 {
				st.VariableLat = lastSelect - firstIssue
			}
			if lastSelect > lastDone {
				lastDone = lastSelect
			}
		}
	}
	st.Cycles = lastDone
	st.ThroughputCPL = float64(st.Cycles) / float64(st.LabelsIssued)
	return st, nil
}
