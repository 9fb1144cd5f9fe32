// Package hw models RSU-G area and power at the component level,
// reproducing the paper's Table III (new RSU-G breakdown) and Table IV
// (area versus RNG-based alternatives). The paper derived its numbers from
// Cacti and a 15 nm predictive-process Verilog synthesis plus
// first-principles optics sizing; those tools are not reproducible here, so
// the primitive constants below are calibrated to the paper's published
// component totals (DESIGN.md §4) while the *structure* — what is private,
// what amortizes under sharing, how converter realizations compare — is
// modeled explicitly and exercised by the experiments.
package hw

import "fmt"

// AreaPower is an area/power pair in the paper's reporting units.
type AreaPower struct {
	AreaUm2 float64
	PowerMW float64
}

// Add returns the component-wise sum.
func (a AreaPower) Add(b AreaPower) AreaPower {
	return AreaPower{a.AreaUm2 + b.AreaUm2, a.PowerMW + b.PowerMW}
}

// Scale returns a scaled by k.
func (a AreaPower) Scale(k float64) AreaPower {
	return AreaPower{a.AreaUm2 * k, a.PowerMW * k}
}

// Component is a named design block with a unit cost and a replication count.
type Component struct {
	Name  string
	Unit  AreaPower
	Count int
	// Shareable marks optical resources (light sources, waveguides) that
	// can amortize across RSU-Gs on the same waveguide (Sec. IV-B-6).
	Shareable bool
}

// Total returns the component's aggregate cost.
func (c Component) Total() AreaPower { return c.Unit.Scale(float64(c.Count)) }

// Design is a named list of components.
type Design struct {
	Name       string
	Components []Component
}

// Total sums all components.
func (d Design) Total() AreaPower {
	var t AreaPower
	for _, c := range d.Components {
		t = t.Add(c.Total())
	}
	return t
}

// ShareableArea returns the area of components that amortize under light
// source / waveguide sharing.
func (d Design) ShareableArea() float64 {
	var a float64
	for _, c := range d.Components {
		if c.Shareable {
			a += c.Total().AreaUm2
		}
	}
	return a
}

// Group sums components whose names carry the given prefix, used to report
// the paper's three Table III rows (RET circuit / CMOS circuitry / LUT).
func (d Design) Group(prefix string) AreaPower {
	var t AreaPower
	for _, c := range d.Components {
		if len(c.Name) >= len(prefix) && c.Name[:len(prefix)] == prefix {
			t = t.Add(c.Total())
		}
	}
	return t
}

// underWaveguideReclaimUm2 is the CMOS area the optimistic layout hides
// underneath the waveguides (Table IV, RSUG_optimistic).
const underWaveguideReclaimUm2 = 236

// NewRSUGDesign returns the new RSU-G component inventory. Group totals
// reproduce Table III: RET circuit 1120 um^2 / 0.08 mW, CMOS circuitry
// 1128 um^2 / 3.49 mW, LUT 655 um^2 / 1.42 mW; RSU total 2903 um^2 /
// 4.99 mW.
func NewRSUGDesign() Design {
	return Design{
		Name: "new-RSUG",
		Components: []Component{
			// --- RET circuit (per Fig. 11): 8 replica rows, each with one
			// QDLED driving a waveguide coupled to 4 concentrations.
			{Name: "ret/qdled", Unit: AreaPower{80, 0.00375}, Count: 8, Shareable: true},
			{Name: "ret/waveguide", Unit: AreaPower{20, 0}, Count: 8, Shareable: true},
			{Name: "ret/network", Unit: AreaPower{3, 0}, Count: 32},
			{Name: "ret/spad", Unit: AreaPower{6, 0.00125}, Count: 32},
			{Name: "ret/mux32", Unit: AreaPower{32, 0.01}, Count: 1},
			// --- CMOS circuitry: the pipeline of Fig. 10.
			{Name: "cmos/energy-datapath", Unit: AreaPower{430, 1.60}, Count: 1},
			{Name: "cmos/emin-fifo", Unit: AreaPower{420, 1.10}, Count: 1},
			{Name: "cmos/boundary-converter", Unit: AreaPower{60, 0.12}, Count: 1},
			{Name: "cmos/timing", Unit: AreaPower{150, 0.50}, Count: 1},
			{Name: "cmos/selection", Unit: AreaPower{68, 0.17}, Count: 1},
			// --- Label-value LUT backing the multi-distance energy stage
			// (Sec. IV-B-1).
			{Name: "lut/label-values", Unit: AreaPower{655, 1.42}, Count: 1},
		},
	}
}

// PrevRSUGDesign returns the previous RSU-G inventory (Wang et al. [5]):
// intensity-modulated single-network circuits replicated 4x, an
// energy-to-intensity LUT converter, and a squared-distance-only energy
// stage. Totals reproduce the paper's 0.0029 mm^2 / 3.91 mW, with the
// single RET circuit at 1/0.7 x area and 1/0.5 x power of the new one
// (Sec. IV-C).
func PrevRSUGDesign() Design {
	return Design{
		Name: "prev-RSUG",
		Components: []Component{
			// 4 replicated circuits, each: 16-level QDLED bank + 1 network
			// + 1 SPAD on its own waveguide.
			{Name: "ret/qdled-bank", Unit: AreaPower{330, 0.0325}, Count: 4, Shareable: true},
			{Name: "ret/waveguide", Unit: AreaPower{20, 0}, Count: 4, Shareable: true},
			{Name: "ret/network", Unit: AreaPower{3, 0}, Count: 4},
			{Name: "ret/spad", Unit: AreaPower{47, 0.0075}, Count: 4},
			// Squared-distance-only energy stage and pipeline.
			{Name: "cmos/energy-datapath", Unit: AreaPower{540, 1.75}, Count: 1},
			{Name: "cmos/timing", Unit: AreaPower{150, 0.50}, Count: 1},
			{Name: "cmos/selection", Unit: AreaPower{68, 0.17}, Count: 1},
			// Energy-to-intensity LUT converter (256 x 4 bits).
			{Name: "lut/energy-to-intensity", Unit: AreaPower{542, 1.33}, Count: 1},
		},
	}
}

// RSUGArea returns the per-unit area of the new RSU-G when `share` units
// amortize one light-source set (Table IV: RSUG_noshare, RSUG_4share).
func RSUGArea(share int) float64 {
	if share < 1 {
		panic("hw: share must be >= 1")
	}
	d := NewRSUGDesign()
	total := d.Total().AreaUm2
	shareable := d.ShareableArea()
	return total - shareable + shareable/float64(share)
}

// RSUGOptimisticArea returns the Table IV RSUG_optimistic point: light
// sources amortized to negligible area across many units and CMOS placed
// underneath the waveguides.
func RSUGOptimisticArea() float64 {
	d := NewRSUGDesign()
	return d.Total().AreaUm2 - d.ShareableArea() - underWaveguideReclaimUm2
}

// RNGAlternative models a pure-CMOS sampling-unit alternative from Table IV:
// a generator core that `share` sampling units can time-multiplex, plus the
// per-unit CDF LUT + comparator overhead that programmability requires.
type RNGAlternative struct {
	Name string
	// CoreAreaUm2 is the generator core (shareable).
	CoreAreaUm2 float64
	// PerUnitOverheadUm2 is the per-sampling-unit CDF storage/compare logic.
	PerUnitOverheadUm2 float64
	// MaxShare bounds how many units one core can feed (throughput limit);
	// 1 means the core cannot be shared (e.g. Intel DRNG).
	MaxShare int
}

// AreaPerUnit returns the per-sampling-unit area at the given sharing level.
func (r RNGAlternative) AreaPerUnit(share int) (float64, error) {
	if share < 1 {
		return 0, fmt.Errorf("hw: share must be >= 1")
	}
	if share > r.MaxShare {
		return 0, fmt.Errorf("hw: %s supports at most %d-way sharing", r.Name, r.MaxShare)
	}
	return r.CoreAreaUm2/float64(share) + r.PerUnitOverheadUm2, nil
}

// MT19937Alt returns the Mersenne-Twister hardware model, scaled to 15 nm
// from the VLSI design the paper cites. Calibrated so 1/4/208-way sharing
// reproduces Table IV's 19269 / 6507 / 2336 um^2.
func MT19937Alt() RNGAlternative {
	return RNGAlternative{Name: "mt19937", CoreAreaUm2: 17016, PerUnitOverheadUm2: 2253, MaxShare: 208}
}

// LFSR19Alt returns the 19-bit LFSR model: a negligible core with the same
// class of per-unit CDF overhead (Table IV: 2186 um^2, unshared).
func LFSR19Alt() RNGAlternative {
	return RNGAlternative{Name: "lfsr19", CoreAreaUm2: 30, PerUnitOverheadUm2: 2156, MaxShare: 1}
}

// IntelDRNGAlt returns the Intel DRNG (AES-256 stage only) model; its
// throughput supports a single sampling unit (Table IV: 3721 um^2).
func IntelDRNGAlt() RNGAlternative {
	return RNGAlternative{Name: "intel-drng", CoreAreaUm2: 1468, PerUnitOverheadUm2: 2253, MaxShare: 1}
}

// IntelDRNGPowerMW is the Intel DRNG power at 6.4 Gb/s; the RSU-G consumes
// ~13% of it in similar area (Sec. II-C).
const IntelDRNGPowerMW = 30
