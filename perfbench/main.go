// Command perfbench is the repository benchmark: it drives the SpGEMM
// library, the graph use cases and the multiply server through their public
// functions on one named workload, checks every output against independent
// references, and prints every end-to-end metric (or, with -trace, every
// per-layer metric) by name with its unit. See README.md for the workloads,
// the metric map and how to read a traced run; run.py is the entry point
// that builds this program and runs it.
//
//	perfbench -workload g500_square -seed 1 -seconds 10 [-trace] [-trace-out spans.json]
//	perfbench -compare [-bench BENCHMARK.json] old.jsonl new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/memmodel"
)

// workers is the kernel worker count of every workload: two kernel workers
// on at most two OS threads, whatever the host has.
const workers = 2

// Each workload sets up at least minSetupReps times and for at least
// minSetupTime (cheap set-ups repeat more), at most maxSetupReps times;
// setup_s is the median.
const (
	minSetupReps = 9
	maxSetupReps = 200
	minSetupTime = time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
}

// run is what a workload hands back to main.
type run struct {
	counts map[string]any // exact input/output counts, for the fingerprint
	setup  []float64      // seconds per set-up repetition
	lat    []float64      // ms per measured op, failed ones included
	// With tracing on, every other op is traced; their latencies split
	// here give trace.overhead_pct.
	tracedLat, plainLat []float64
	// attempted and failed cover every measured op.
	attempted, failed int
	// flop is the useful flop of correct ops, done in busy seconds.
	flop, busy float64
	// sloMet of sloAttempted ops were correct and within the latency limit.
	sloMet, sloAttempted int
	rps                  float64
	layers               map[string]float64
	stanzaBytes          int
	stanzaGBs            float64
}

func newRun() *run {
	return &run{counts: map[string]any{}, layers: map[string]float64{}}
}

// addLat records one op's latency in ms.
func (r *run) addLat(v float64, traced bool) {
	r.lat = append(r.lat, v)
	if traced {
		r.tracedLat = append(r.tracedLat, v)
	} else {
		r.plainLat = append(r.plainLat, v)
	}
}

// workloadDef ties a workload name to its run function and latency limit.
type workloadDef struct {
	run     func(cfg config, tr *tracer, r *run) error
	limitMs float64 // the per-op latency limit slo_ratio and rps_at_slo use
}

var workloads = map[string]workloadDef{
	"g500_square":  {runSquare, squareLimitMs},
	"graph_apps":   {runApps, appsLimitMs},
	"serve_replay": {runServe, serveLimitMs},
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"mflops", "Mflop/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
	{"slo_ratio", "ratio"},
	{"rps_at_slo", "req/s"},
}

// perLayer lists every per-layer metric a traced run reports. A layer that
// does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"spgemm.recipe_ms", "ms"},
	{"spgemm.partition_ms", "ms"},
	{"spgemm.symbolic_ms", "ms"},
	{"spgemm.alloc_ms", "ms"},
	{"spgemm.numeric_ms", "ms"},
	{"spgemm.assemble_ms", "ms"},
	{"spgemm.compression_ratio", "ratio"},
	{"spgemm.numeric_bytes", "B"},
	{"spgemm.numeric_pct_bw", "%"},
	{"accum.collision_factor", "ratio"},
	{"sched.flop_imbalance", "ratio"},
	{"mem.alloc_mb_per_op", "MiB"},
	{"mem.allocs_per_op", "count"},
	{"mem.gc_cycles_per_op", "count"},
	{"memmodel.stanza_gbs", "GB/s"},
	{"graph.prepare_ms", "ms"},
	{"graph.triangles_ms", "ms"},
	{"graph.msbfs_ms", "ms"},
	{"graph.msbfs_products", "count"},
	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.gap_ms", "ms"},
	{"server.upload_ms", "ms"},
	{"server.plan_hit_ratio", "ratio"},
	{"server.rejected_ratio", "ratio"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.unexplained_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host and the exact inputs of a run; runs
// whose fingerprints differ are not compared.
type fingerprint struct {
	CPUModel    string         `json:"cpu_model"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	StanzaGBs   float64        `json:"stanza_gbs"`
	StanzaBytes int            `json:"stanza_bytes"`
	Counts      map[string]any `json:"counts"`
}

// record is the full account of one run; run.py keeps these for compare.
type record struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Trace          bool              `json:"trace"`
	Fingerprint    fingerprint       `json:"fingerprint"`
	LimitMs        float64           `json:"latency_limit_ms"`
	TailPercentile float64           `json:"tail_percentile"`
	Samples        int               `json:"samples"`
	SetupReps      int               `json:"setup_reps"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	Metrics        map[string]metric `json:"metrics"`
	SelfTimes      []layerTime       `json:"self_times,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: g500_square, graph_apps or serve_replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed run measures")
	traced := flag.Bool("trace", false, "record spans and report per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace, write the spans here as Chrome trace-event JSON")
	compare := flag.Bool("compare", false, "compare two record files (old new) instead of running")
	benchPath := flag.String("bench", "BENCHMARK.json", "with -compare, the file holding the metrics' bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "usage: perfbench -compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *benchPath); err != nil {
			fatalf(1, "compare: %v", err)
		}
		return
	}
	def, ok := workloads[*workload]
	if !ok {
		fatalf(2, "unknown workload %q (want g500_square, graph_apps or serve_replay)", *workload)
	}
	if !(*seconds > 0) {
		fatalf(2, "-seconds must be positive")
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds}
	var tr *tracer
	if *traced {
		tr = newTracer()
	}
	r := newRun()
	if err := def.run(cfg, tr, r); err != nil {
		fatalf(1, "%s: %v", cfg.workload, err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fatalf(1, "read peak RSS: %v", err)
	}

	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: *traced,
		Fingerprint: fingerprint{
			CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), StanzaGBs: r.stanzaGBs, StanzaBytes: r.stanzaBytes,
			Counts: r.counts,
		},
		LimitMs:        def.limitMs,
		TailPercentile: tailPercentile(len(r.lat)),
		Samples:        len(r.lat),
		SetupReps:      len(r.setup),
		Attempted:      r.attempted,
		Failed:         r.failed,
		Metrics:        map[string]metric{},
	}
	if *traced {
		sum := tr.summarize()
		r.layers["trace.coverage"] = sum.Coverage
		r.layers["trace.unexplained_ms"] = sum.UnexplainedMs
		if len(r.tracedLat) > 0 && len(r.plainLat) > 0 {
			r.layers["trace.overhead_pct"] = (median(r.tracedLat)/median(r.plainLat) - 1) * 100
		}
		r.layers["memmodel.stanza_gbs"] = r.stanzaGBs
		rec.SelfTimes = sum.Layers
		writeSelfTimes(os.Stderr, sum)
		if *traceOut != "" {
			if err := tr.writeChromeTrace(*traceOut); err != nil {
				fatalf(1, "%v", err)
			}
		}
		for _, m := range perLayer {
			rec.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
	} else {
		values := map[string]float64{
			"mflops":      r.flop / r.busy / 1e6,
			"op_p50_ms":   median(r.lat),
			"op_tail_ms":  quantile(r.lat, rec.TailPercentile),
			"setup_s":     median(r.setup),
			"peak_rss_mb": rss,
			"ok_ratio":    1 - float64(r.failed)/float64(r.attempted),
			"slo_ratio":   float64(r.sloMet) / float64(r.sloAttempted),
			"rps_at_slo":  r.rps,
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf(1, "metric %s is %v", name, m.Value)
		}
	}

	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fatalf(1, "encode record: %v", err)
	}
	fmt.Println(string(line))
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: rec.Metrics}
	line, err = json.Marshal(res)
	if err != nil {
		fatalf(1, "encode result: %v", err)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed their output check\n", cfg.workload, r.failed, r.attempted)
		os.Exit(1)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or GOARCH where
// that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// probeBandwidth measures the host's stanza read bandwidth once per run at
// the workload's mean stanza length, over an array four times a 32 MiB
// last-level cache.
func probeBandwidth(r *run, meanStanza float64) {
	l := max(8, int(math.Round(meanStanza/8))*8)
	res := memmodel.MeasureStanzaBandwidth(128<<20, []int{l}, 250*time.Millisecond)
	r.stanzaBytes = res[0].StanzaBytes
	r.stanzaGBs = res[0].GBps
}

// timeSetups repeats set-up and records each duration; the last
// repetition's state is what the timed run uses.
func timeSetups(r *run, setup func() error) error {
	var total time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < minSetupTime); i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		total += d
		r.setup = append(r.setup, d.Seconds())
	}
	return nil
}
