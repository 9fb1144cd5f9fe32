package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// host is the fingerprint recorded with every result, so a number is only
// ever compared with numbers from a matching host.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	// SolverThreads is the most goroutines that did solver work at once
	// (executors of one parallel solve, or serving workers times per-job
	// solver workers). Oversubscribed marks a run where it, or GOMAXPROCS,
	// exceeds NumCPU: no parallel number from such a run is valid.
	SolverThreads  int  `json:"solver_threads"`
	Oversubscribed bool `json:"oversubscribed"`
}

// fingerprint describes this host. GOMAXPROCS is read, never changed.
func fingerprint(commit string, solverThreads int) host {
	h := host{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit,
		CPUModel:      cpuModel(),
		SolverThreads: solverThreads,
	}
	h.L2Bytes, h.LLCBytes = cacheSizes()
	h.Oversubscribed = solverThreads > h.NumCPU || h.GOMAXPROCS > h.NumCPU
	return h
}

// solverExecutors is the number of goroutines a parallel solve with the
// given number of logical streams runs on when SolveOptions.Executors is
// left at its default: min(streams, NumCPU, GOMAXPROCS).
func solverExecutors(streams int) int {
	return min(streams, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's unified level-2 and last-level cache sizes from
// sysfs; 0 where the host does not expose them.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	llcLevel := 0
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = size
		}
		if level >= 2 && level > llcLevel {
			llcLevel, llc = level, size
		}
	}
	return l2, llc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs cache sizes such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
