// Denoise example: a fourth MRF application built directly on the public
// MRF + sampler API, demonstrating the "wider application domain" the
// paper's future-work section calls for. Labels are 16 quantized gray
// levels; the data term pulls toward the noisy observation and the
// absolute-distance smoothness prior removes the noise.
//
// Run with: go run ./examples/denoise
// PGM outputs land in examples/denoise/out/.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

const levels = 16 // gray levels = MRF labels

func main() {
	log.SetFlags(0)
	// Build a clean synthetic image and add heavy noise.
	scene := synth.Segments("denoise", 96, 64, 5, 0, 7)
	clean := scene.Image.Clone()
	noisy := clean.Clone()
	src := rng.NewXoshiro256(99)
	for i := range noisy.Pix {
		noisy.Pix[i] += (rng.Float64(src) - 0.5) * 120
	}
	noisy.Clamp255()

	prob := &mrf.Problem{
		W: noisy.W, H: noisy.H, Labels: levels,
		Singleton: func(x, y, l int) float64 {
			// Truncated absolute deviation from the noisy observation.
			d := math.Abs(noisy.At(x, y) - levelToGray(l))
			if d > 80 {
				d = 80
			}
			return d
		},
		PairWeight:   10,
		Dist:         mrf.Absolute,
		TruncateDist: 4,
	}
	sched := mrf.Schedule{T0: 24, Alpha: 0.97, Iterations: 150}

	outDir := filepath.Join("examples", "denoise", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	save(outDir, "clean.pgm", clean)
	save(outDir, "noisy.pgm", noisy)

	fmt.Printf("denoising %dx%d with %d gray levels\n", noisy.W, noisy.H, levels)
	fmt.Printf("noisy input PSNR: %.2f dB\n\n", psnr(clean, noisy))
	for _, cand := range []struct {
		name string
		s    core.LabelSampler
	}{
		{"software", core.NewSoftwareSampler(rng.NewXoshiro256(1))},
		{"new-RSUG", core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(2), true)},
	} {
		one := func(int) core.LabelSampler { return cand.s }
		lab, err := mrf.Solve(context.Background(), prob, one, sched, mrf.SolveOptions{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		den := img.NewGray(noisy.W, noisy.H)
		for i, l := range lab.L {
			den.Pix[i] = levelToGray(l)
		}
		fmt.Printf("%-10s denoised PSNR: %.2f dB\n", cand.name, psnr(clean, den))
		save(outDir, "denoised_"+cand.name+".pgm", den)
	}
	fmt.Printf("\nimages written to %s\n", outDir)
}

func levelToGray(l int) float64 { return float64(l) * 255 / (levels - 1) }

func psnr(a, b *img.Gray) float64 {
	var mse float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func save(dir, name string, g *img.Gray) {
	if err := img.SavePGM(filepath.Join(dir, name), g); err != nil {
		log.Fatal(err)
	}
}
