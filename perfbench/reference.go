package main

import "rsu/internal/mrf"

// Reference values frozen from the commit that introduced the benchmark.
// They are inputs of the correctness checks and of slo_met_ratio, so a
// later change that moves them changes what the benchmark accepts; change
// them only together with a re-measured baseline.

// band is an inclusive quality reference band.
type band struct{ lo, hi float64 }

func (b band) contains(v float64) bool { return v >= b.lo && v <= b.hi }

// largeSchedule is stereo-large's short anneal: 12 sweeps cooling from the
// app's T0 of 32 to about 0.6.
var largeSchedule = mrf.Schedule{T0: 32, Alpha: 0.7, Iterations: 12}

// The bands are the range seen over a dozen seeds, widened by a few points;
// the label-hash checks are the exact ones.
var (
	// refAnnealBP bounds the bad-pixel % of one stereo-anneal solve
	// (13.8-14.5 seen).
	refAnnealBP = band{11, 17}
	// refLargeBP bounds the bad-pixel % of one stereo-large solve
	// (42.95 seen: twelve sweeps settle only part of the grid).
	refLargeBP = band{40, 46}
	// tinyBP is the band of the self-test size (40.1-45.4 seen).
	tinyBP = band{35, 50}
)

// The calibration kernel's shapes and its time per call at the reference
// host's nominal speed; see calib.go. stereo-anneal's two workers cross a
// barrier every 0.2 ms, so its kernel crosses one per round; stereo-large's
// six tiles cross one every 50 ms, so its kernel runs both executors in one
// round; serve-mix's workers run serial solves, so its kernel runs on one
// thread. The times are the p50 between solves or jobs over quiet runs.
var (
	refCalibAnneal = speedLog{executors: 2, rounds: 16, ref: 2.8e-3}
	refCalibLarge  = speedLog{executors: 2, rounds: 1, ref: 1.9e-3}
	refCalibMix    = speedLog{executors: 1, rounds: 1, ref: 1.75e-3}
)

// serve-mix references.
var (
	// refMixRate is the open loop's offered load in jobs/s: 30% of the
	// 80.9 jobs/s a 2-client closed loop sustained on the seed commit on the
	// reference host. At 60% and at 40% the host's own speed swings, which
	// halve its speed for tens of seconds, turned into queueing that moved
	// the p50 latency by half between runs; a lower load leaves room for a
	// slow period before jobs queue.
	refMixRate = 24.0
	// Quality bands per app, over every dataset of the mix (stereo BP
	// 14.5-21.8%, flow EPE 0.96-1.07 px, segment VoI 0-0.49, ising |m|
	// 0.997-0.999 seen over six seeds).
	refMixBP  = band{10, 28}
	refMixEPE = band{0.7, 1.5}
	refMixVoI = band{0, 1}
	refMixMag = band{0.95, 1}
	// refMixSLO is the per-app latency limit in seconds, from due time to
	// completion: the app's unloaded p50 run time on the seed commit plus
	// two of the slowest app's (flow, 0.133 s), i.e. a job may wait behind
	// two of the longest jobs. Unloaded p50s: segment 0.0038 s, ising
	// 0.0013 s, stereo 0.109 s, flow 0.133 s.
	refMixSLO = map[string]float64{"segment": 0.27, "ising": 0.27, "stereo": 0.375, "flow": 0.4}
)
