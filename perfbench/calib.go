package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed calibration.
//
// On the reference host the speed of the vCPUs swings by up to 1.7x over
// tens of seconds: a fixed compute loop, timed in 10 s windows, ran between
// 6.4 and 10.6 ms per call, and its thread CPU time swung with it, so the
// hypervisor does not account the lost time as steal. No statistic of the
// workload's own timings removes that. So every run also times a fixed
// calibration kernel, which does not depend on the program, between its
// operations, and the end-to-end times are scaled to the reference host's
// nominal speed: an operation that took t near kernel calls of median time c
// is reported as t × reference / c. A change to the program moves the scaled
// time as it moves the raw one; a change of the host's speed moves both the
// workload and the kernel and largely cancels. The raw wall times are
// printed beside the scaled ones.

// calibNearest is how many calibration calls, nearest in time to an
// operation, set its speed factor when fewer fall inside the operation.
const calibNearest = 6

// speedLog holds the calibration calls of one run.
type speedLog struct {
	// executors and rounds shape the kernel like the workload's solves (see
	// calibrate); ref is the kernel's time per call at the reference
	// host's nominal speed for that shape.
	executors, rounds int
	ref               float64
	states            []*calibGrid
	at                []time.Time
	cost              []float64 // seconds per kernel call
	// spent is the wall time spent in sample.
	spent time.Duration
}

// sample runs the calibration kernel n times and records each call.
func (l *speedLog) sample(n int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.cost = append(l.cost, l.calibrate())
		l.at = append(l.at, time.Now())
	}
	l.spent += time.Since(t0)
}

// factor is the speed factor of the interval [from, to]: the reference
// kernel time over the median of the calls inside the interval, or, when
// fewer than calibNearest fall inside, of the calibNearest calls nearest to
// its midpoint. It is 1 without calls.
func (l *speedLog) factor(from, to time.Time) float64 {
	if len(l.cost) == 0 {
		return 1
	}
	var near []float64
	for i, at := range l.at {
		if !at.Before(from) && !at.After(to) {
			near = append(near, l.cost[i])
		}
	}
	if len(near) < calibNearest {
		mid := from.Add(to.Sub(from) / 2)
		dist := func(i int) time.Duration { return max(l.at[i].Sub(mid), mid.Sub(l.at[i])) }
		idx := make([]int, len(l.at))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
		near = near[:0]
		for _, i := range idx[:min(calibNearest, len(idx))] {
			near = append(near, l.cost[i])
		}
	}
	return l.ref / median(near)
}

// runFactor is the speed factor of the whole run.
func (l *speedLog) runFactor() float64 {
	if len(l.cost) == 0 {
		return 1
	}
	return l.ref / median(l.cost)
}

// calibrate runs the kernel once, shaped by the log's executors and
// rounds, and returns its time in seconds.
//
// With one executor it is the kernel's thread CPU time. Thread CPU time
// leaves out the time the thread waits for a CPU, so a call that the
// workload's own goroutines preempt (serve-mix calibrates while its workers
// run) still measures the host's speed.
//
// With more, the kernel runs as a parallel solve does: its work is split
// into rounds, each executor runs its share of a round and waits at a
// barrier, and the call's wall time is the result. A parallel solve waits
// for its slowest executor, and on the reference host the vCPUs slow down
// apart from each other: in one slow period two-executor solves took twice
// their usual time while the one-thread kernel stayed within 3%. The closed
// loops calibrate between solves, when nothing else runs, so wall time is
// safe there.
func (l *speedLog) calibrate() float64 {
	if len(l.states) == 0 {
		for e := 0; e < max(l.executors, 1); e++ {
			l.states = append(l.states, &calibGrid{lab: make([]int32, calibW*calibH), rng: 0x9e3779b97f4a7c15 + uint64(e)})
		}
	}
	if len(l.states) == 1 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c0 := threadCPU()
		l.states[0].run(calibSites)
		return threadCPU() - c0
	}
	rounds := max(l.rounds, 1)
	start := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, st := range l.states[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range start {
				st.run(calibSites / rounds)
				done <- struct{}{}
			}
		}()
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for range l.states[1:] {
			start <- struct{}{}
		}
		l.states[0].run(calibSites / rounds)
		for range l.states[1:] {
			<-done
		}
	}
	d := time.Since(t0).Seconds()
	close(start)
	wg.Wait()
	return d
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// The calibration kernel is a frozen miniature Gibbs sweep, so that it
// leans on the host the way the solvers do: each site gathers a row of a
// unary table that does not fit in L2, adds Potts penalties from its four
// neighbours, turns every label's energy into a weight through a lookup
// table, and draws its new label from the cumulative weights with an
// xorshift generator. It shares no code with the program.
const (
	calibW, calibH, calibL = 256, 128, 16
	// calibSites is one kernel call's work per executor: about 1.7 ms on
	// the reference host.
	calibSites = 12000
)

// calibUnary is the kernel's unary table, 4 MiB, shared read-only.
var calibUnary = func() []float64 {
	t := make([]float64, calibW*calibH*calibL)
	x := uint64(12345)
	for i := range t {
		x = xorshift(x)
		t[i] = float64(x%1000) / 100
	}
	return t
}()

// calibWeight maps a quantized energy to a Boltzmann-like weight.
var calibWeight = func() []float64 {
	t := make([]float64, 256)
	for i := range t {
		t[i] = 1 / (1 + float64(i)*0.1)
	}
	return t
}()

// calibGrid is one executor's kernel state, kept across calls: its label
// grid, the next site and its generator.
type calibGrid struct {
	lab []int32
	pos int
	rng uint64
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run sweeps n sites, in raster order from where the last call stopped.
func (c *calibGrid) run(n int) {
	var cums [calibL]float64
	x := c.rng
	for k := 0; k < n; k++ {
		c.pos = (c.pos + 1) % (calibW * calibH)
		site := c.pos
		if site < calibW || site >= calibW*(calibH-1) {
			continue
		}
		up, dn, le, ri := c.lab[site-calibW], c.lab[site+calibW], c.lab[site-1], c.lab[site+1]
		row := calibUnary[site*calibL : (site+1)*calibL]
		cum := 0.0
		for l := int32(0); l < calibL; l++ {
			e := row[l]
			if up != l {
				e += 1.5
			}
			if dn != l {
				e += 1.5
			}
			if le != l {
				e += 1.5
			}
			if ri != l {
				e += 1.5
			}
			cum += calibWeight[int(e*8)&255]
			cums[l] = cum
		}
		x = xorshift(x)
		r := float64(x>>11) / (1 << 53) * cum
		pick := int32(calibL - 1)
		for l := int32(0); l < calibL; l++ {
			if cums[l] > r {
				pick = l
				break
			}
		}
		c.lab[site] = pick
	}
	c.rng = x
}

// calibPerOp is how many kernel calls a closed loop makes before each
// operation.
const calibPerOp = 3

// timings are the wall-time intervals of a run's operations.
type timings struct {
	raw      []float64 // wall seconds
	from, to []time.Time
}

// add records an operation that ran from from to to, less the excluded
// time spent inside it on calibration.
func (t *timings) add(from, to time.Time, excluded time.Duration) {
	t.raw = append(t.raw, (to.Sub(from) - excluded).Seconds())
	t.from, t.to = append(t.from, from), append(t.to, to)
}

// scaled is every operation's wall time scaled to the reference host's
// speed by the calibration samples nearest to it.
func (t *timings) scaled(l *speedLog) []float64 {
	out := make([]float64, len(t.raw))
	for i, w := range t.raw {
		out[i] = w * l.factor(t.from[i], t.to[i])
	}
	return out
}

// setupMetric is setup_s: the median of the scaled set-up times.
func setupMetric(t timings, l *speedLog, what string) metric {
	return metric{Name: "setup_s", Value: median(t.scaled(l)), Unit: "s", N: len(t.raw),
		Note: fmt.Sprintf("%s; raw wall p50 %.6g s", what, median(t.raw))}
}

// calibNote states the run's host speed and how the times were scaled.
func (r *report) calibNote(l *speedLog) {
	r.note("host speed: calibration kernel (%d executor(s), %d round(s)) p50 %.4g ms over %d calls, reference %.4g ms, run speed factor %.3f;",
		max(l.executors, 1), max(l.rounds, 1), 1e3*median(l.cost), len(l.cost), 1e3*l.ref, l.runFactor())
	r.note("  end-to-end times are scaled to the reference speed by the calls inside or nearest to each operation")
}
