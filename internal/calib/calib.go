// Package calib is the one home of the planner's measured constants and
// of the host fingerprint that stamps every checked-in BENCH_*.json.
//
// The constants were measured on one machine and stay fixed: the
// sfcpvet crossoverconst analyzer flags literal respellings elsewhere, so
// a change here is the only way to move them.
package calib

import (
	"os"
	"runtime"
	"strings"
)

// The planner constants. Every crossover constant in the codebase lives
// here; the sfcpvet crossoverconst analyzer flags stray literals.
const (
	// DefaultMinParallelN is the small-request landmark: below it
	// per-invocation overhead dominates a solve, so sfcpd coalesces such
	// requests into batches (its default BatchMaxN is one less,
	// sfcp.LinearCrossoverN - 1 = 32767).
	DefaultMinParallelN = 1 << 15
	// DefaultWorkerGrain is the target elements per worker when an
	// explicit native-parallel request leaves the worker count unstated;
	// spreading fewer than this across extra goroutines costs more in
	// startup and barriers than the added parallelism returns.
	DefaultWorkerGrain = 1 << 14
	// DefaultIncrMaxDirtyFrac is the dirty fraction above which an Auto
	// re-solve falls back from the incremental path to a full solve: the
	// incremental recompute codes through persistent maps (several times
	// the full solver's array-backed per-node cost), so past roughly a
	// third of the instance the full solve wins. BENCH_A8's 0.25-dirty
	// rows still show incremental 3.1x faster at n = 2^16 (2.2–2.4x at
	// 2^18–2^20).
	DefaultIncrMaxDirtyFrac = 0.3
)

// HostFingerprint identifies the hardware a measurement ran on, so
// checked-in trajectory snapshots are attributable.
type HostFingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// CPUModel is the "model name" line of /proc/cpuinfo when readable,
	// empty elsewhere (the field is best-effort by design).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Fingerprint captures the current host.
func Fingerprint() HostFingerprint {
	return HostFingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the first "model name" value from /proc/cpuinfo.
// Any failure (non-Linux, restricted /proc) yields "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
