// Command rsu-flow solves one synthetic motion-estimation instance with a
// selectable sampler and optionally writes the flow magnitude as PGM.
//
// Usage:
//
//	rsu-flow -dataset venus -sampler new
//	rsu-flow -dataset rubberwhale -sampler software -out out/
//	rsu-flow -timeout 1m -runlog run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rsu/internal/apps/flow"
	"rsu/internal/img"
	"rsu/internal/runopt"
	"rsu/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rsu-flow: ")
	var (
		dataset = flag.String("dataset", "venus", "venus | rubberwhale | dimetrodon")
		scale   = flag.Int("scale", 1, "dataset scale factor")
		iters   = flag.Int("iters", 0, "override annealing iterations (0 = default 300)")
		out     = flag.String("out", "", "directory for PGM outputs")
		ropt    runopt.Flags
	)
	ropt.Register(flag.CommandLine)
	flag.Parse()

	build, err := synth.FlowDataset(*dataset)
	if err != nil {
		log.Fatalf("-dataset: %v", err)
	}
	switch {
	case *scale < 1:
		log.Fatalf("-scale %d: must be >= 1", *scale)
	case *iters < 0:
		log.Fatalf("-iters %d: must be >= 0 (0 = the default 300)", *iters)
	}
	pair := build(*scale)

	p := flow.DefaultParams()
	if *iters > 0 {
		p.Schedule.Iterations = *iters
	}
	ropt.Apply(&p.Schedule)
	rt, err := ropt.Start("flow", *dataset)
	if err != nil {
		log.Fatal(err)
	}
	p.Options = rt.Options

	res, err := flow.Solve(pair, nil, p)
	runopt.ReportResume(os.Stdout, p.Checkpoint)
	if cerr := rt.Close(); err != nil || cerr != nil {
		log.Fatal(errors.Join(err, cerr))
	}
	fmt.Printf("%s (%dx%d, %d labels) with %s sampler: EPE %.3f px\n",
		pair.Name, pair.Frame0.W, pair.Frame0.H, pair.LabelCount(), ropt.Sampler, res.EPE)
	if err := runopt.ReportUQ(os.Stdout, res.UQ, res.Labels, *out, pair.Name); err != nil {
		log.Fatal(err)
	}
	runopt.ReportFaults(os.Stdout, res.Faults)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, g := range map[string]*img.Gray{
			"frame0.pgm": pair.Frame0,
			"frame1.pgm": pair.Frame1,
			"flow.pgm":   flow.FlowFieldToGray(res.Labels, pair.Radius),
		} {
			path := filepath.Join(*out, pair.Name+"_"+name)
			if err := img.SavePGM(path, g); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}
