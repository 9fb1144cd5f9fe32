// Command rsu-stereo solves one synthetic stereo instance with a selectable
// sampler and writes the disparity maps as PGM files.
//
// Usage:
//
//	rsu-stereo -dataset teddy -sampler new -out out/
//	rsu-stereo -dataset poster -sampler software -iters 300
//	rsu-stereo -timeout 30s -runlog run.jsonl -pprof cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rsu/internal/apps/stereo"
	"rsu/internal/img"
	"rsu/internal/runopt"
	"rsu/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rsu-stereo: ")
	var (
		dataset = flag.String("dataset", "teddy", "teddy | poster | art")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		iters   = flag.Int("iters", 0, "override annealing iterations (0 = default 500)")
		out     = flag.String("out", "", "directory for PGM outputs")
		ropt    runopt.Flags
	)
	ropt.Register(flag.CommandLine)
	flag.Parse()

	build, err := synth.StereoDataset(*dataset)
	if err != nil {
		log.Fatalf("-dataset: %v", err)
	}
	switch {
	case *scale < 1:
		log.Fatalf("-scale %d: must be >= 1", *scale)
	case *iters < 0:
		log.Fatalf("-iters %d: must be >= 0 (0 = the default 500)", *iters)
	}
	pair := build(*scale)

	p := stereo.DefaultParams()
	if *iters > 0 {
		p.Schedule.Iterations = *iters
	}
	ropt.Apply(&p.Schedule)
	rt, err := ropt.Start("stereo", *dataset)
	if err != nil {
		log.Fatal(err)
	}
	p.Options = rt.Options

	res, err := stereo.Solve(pair, nil, p)
	runopt.ReportResume(os.Stdout, p.Checkpoint)
	if cerr := rt.Close(); err != nil || cerr != nil {
		log.Fatal(errors.Join(err, cerr))
	}
	fmt.Printf("%s (%dx%d, %d labels) with %s sampler: BP %.1f%%  RMS %.2f\n",
		pair.Name, pair.Left.W, pair.Left.H, pair.Labels, ropt.Sampler, res.BP, res.RMS)
	if err := runopt.ReportUQ(os.Stdout, res.UQ, res.Disparity, *out, pair.Name); err != nil {
		log.Fatal(err)
	}
	runopt.ReportFaults(os.Stdout, res.Faults)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		max := pair.Labels - 1
		for name, g := range map[string]*img.Gray{
			"left.pgm":      pair.Left,
			"right.pgm":     pair.Right,
			"gt.pgm":        pair.GT.ToGray(max),
			"disparity.pgm": res.Disparity.ToGray(max),
		} {
			path := filepath.Join(*out, pair.Name+"_"+name)
			if err := img.SavePGM(path, g); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}
