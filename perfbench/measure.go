package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// tailPercentiles is the ladder op_tail_ms picks from: the highest entry
// with at least ten samples beyond it. Decade steps (rather than 1-10/n)
// keep the reported percentile the same across runs and commits whose op
// counts differ by less than a factor of ten.
var tailPercentiles = []float64{99, 90, 75, 50}

// tailPercentile returns the highest ladder percentile with at least ten of
// n samples beyond it, or 50 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// quantile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. NaN when
// empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// medianOr returns the median of xs, or 0 when xs is empty: a per-layer
// metric whose layer never ran on this workload reads 0.
func medianOr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSnap is the slice of runtime.MemStats the mem.* per-layer metrics are
// deltas of.
type memSnap struct {
	totalAlloc, mallocs uint64
	numGC               uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, m.NumGC}
}

// memPerOp fills the mem.* per-layer metrics from the delta between two
// snapshots taken around ops operations.
func memPerOp(layers map[string]float64, before, after memSnap, ops int) {
	if ops <= 0 {
		return
	}
	n := float64(ops)
	layers["mem.alloc_mb_per_op"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / n
	layers["mem.allocs_per_op"] = float64(after.mallocs-before.mallocs) / n
	layers["mem.gc_cycles_per_op"] = float64(after.numGC-before.numGC) / n
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's VmHWM
// mark, so peak_rss_mb covers set-up and the timed run but not input
// generation, oracles or the bandwidth probe that ran before.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Linux: writing 5 to clear_refs resets the peak resident set size.
	// Where that fails the peak also counts the untimed preparation.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM of this process in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, os.ErrNotExist
}
