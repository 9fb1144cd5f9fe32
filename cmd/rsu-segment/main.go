// Command rsu-segment segments one synthetic image (or a user-supplied PGM)
// with a selectable sampler and reports the four BISIP quality metrics.
//
// Usage:
//
//	rsu-segment -image 3 -k 6 -sampler new -out out/
//	rsu-segment -pgm photo.pgm -k 4 -sampler software
//	rsu-segment -timeout 30s -runlog -
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rsu/internal/apps/segment"
	"rsu/internal/img"
	"rsu/internal/runopt"
	"rsu/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rsu-segment: ")
	var (
		index   = flag.Int("image", 0, "synthetic image index (scene bsd00 .. bsd29)")
		pgmPath = flag.String("pgm", "", "segment this PGM instead of a synthetic image (no quality metrics)")
		k       = flag.Int("k", 4, "number of segments (2-8 in the paper)")
		scale   = flag.Int("scale", 1, "synthetic dataset scale factor")
		iters   = flag.Int("iters", 0, "override Gibbs iterations (0 = default 30)")
		out     = flag.String("out", "", "directory for PGM outputs")
		ropt    runopt.Flags
	)
	ropt.Register(flag.CommandLine)
	flag.Parse()
	if ropt.TFloor != 0 {
		log.Fatal("-tfloor does not apply: segmentation samples at a fixed temperature")
	}
	switch {
	case *k < 2 || *k > synth.MaxSegments:
		log.Fatalf("-k %d: must be in [2,%d]", *k, synth.MaxSegments)
	case *scale < 1:
		log.Fatalf("-scale %d: must be >= 1", *scale)
	case *iters < 0:
		log.Fatalf("-iters %d: must be >= 0 (0 = the default 30)", *iters)
	}

	p := segment.DefaultParams()
	if *iters > 0 {
		p.Iterations = *iters
	}

	var scene *synth.SegScene
	if *pgmPath != "" {
		im, err := img.LoadPGM(*pgmPath)
		if err != nil {
			log.Fatal(err)
		}
		// Wrap the external image; ground truth is unknown, so GT is a
		// flat map and the reported metrics are not meaningful.
		scene = &synth.SegScene{Name: filepath.Base(*pgmPath), Image: im,
			GT: img.NewLabels(im.W, im.H), Segments: *k}
	} else {
		build, err := synth.SegmentDataset(fmt.Sprintf("bsd%02d", *index))
		if err != nil {
			log.Fatalf("-image %d: %v", *index, err)
		}
		scene = build(*k, *scale)
	}

	rt, err := ropt.Start("segment", scene.Name)
	if err != nil {
		log.Fatal(err)
	}
	p.Options = rt.Options

	res, err := segment.Solve(scene, nil, p)
	runopt.ReportResume(os.Stdout, p.Checkpoint)
	if cerr := rt.Close(); err != nil || cerr != nil {
		log.Fatal(errors.Join(err, cerr))
	}
	fmt.Printf("%s (%dx%d, k=%d) with %s sampler\n",
		scene.Name, scene.Image.W, scene.Image.H, *k, ropt.Sampler)
	if *pgmPath == "" {
		fmt.Printf("  VoI %.3f  PRI %.3f  GCE %.3f  BDE %.2f\n",
			res.Scores.VoI, res.Scores.PRI, res.Scores.GCE, res.Scores.BDE)
	}
	if err := runopt.ReportUQ(os.Stdout, res.UQ, res.Labeling, *out, scene.Name); err != nil {
		log.Fatal(err)
	}
	runopt.ReportFaults(os.Stdout, res.Faults)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, g := range map[string]*img.Gray{
			"input.pgm":    scene.Image,
			"segments.pgm": res.Labeling.ToGray(*k - 1),
		} {
			path := filepath.Join(*out, scene.Name+"_"+name)
			if err := img.SavePGM(path, g); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}
