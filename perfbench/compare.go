package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
)

// boundsFile is the part of BENCHMARK.json compare reads.
type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads the untraced records of a JSON-lines file: each line is
// either a record or {"record": record}, as run.py and perfbench print them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var wrapped struct {
			Record *record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &wrapped); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		rec := wrapped.Record
		if rec == nil {
			rec = new(record)
			if err := json.Unmarshal([]byte(line), rec); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
		}
		if rec.Workload != "" && !rec.Trace {
			out = append(out, *rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced records", path)
	}
	return out, nil
}

// checkComparable refuses record sets from different hosts, run lengths or
// inputs: every record must share the first one's host, and all records of
// one workload and seed must carry identical exact counts.
func checkComparable(recs []record) error {
	host := func(f fingerprint) string {
		return fmt.Sprintf("cpu %q, nproc %d, GOMAXPROCS %d, %s", f.CPUModel, f.NProc, f.GOMAXPROCS, f.GoVersion)
	}
	first := recs[0]
	counts := map[string]map[string]any{}
	for _, r := range recs {
		if h, h0 := host(r.Fingerprint), host(first.Fingerprint); h != h0 {
			return fmt.Errorf("refusing to compare runs from different hosts: %s vs %s", h0, h)
		}
		if r.Seconds != first.Seconds {
			return fmt.Errorf("refusing to compare runs of %gs and %gs", first.Seconds, r.Seconds)
		}
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		c, ok := counts[key]
		if !ok {
			counts[key] = r.Fingerprint.Counts
			continue
		}
		if !reflect.DeepEqual(c, r.Fingerprint.Counts) {
			return fmt.Errorf("refusing to compare: %s has counts %v in one run and %v in another", key, c, r.Fingerprint.Counts)
		}
	}
	return nil
}

// runKeys lists the distinct workload and seed pairs of recs, sorted.
func runKeys(recs []record) []string {
	var keys []string
	for _, r := range recs {
		keys = append(keys, fmt.Sprintf("%s/%d", r.Workload, r.Seed))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// quartiles returns the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// compareFiles prints, for every workload and end-to-end metric, the median
// of each side, the spread of each side (interquartile range over median)
// and the verdict against the metric's bound in BENCHMARK.json. It refuses
// (returns an error) when the two sides' hosts, run lengths, workloads and
// seeds, or exact counts differ.
func compareFiles(w io.Writer, oldPath, newPath, benchPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bounds boundsFile
	if err := json.Unmarshal(raw, &bounds); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if err := checkComparable(append(slices.Clone(oldRecs), newRecs...)); err != nil {
		return err
	}
	if o, n := runKeys(oldRecs), runKeys(newRecs); !slices.Equal(o, n) {
		return fmt.Errorf("refusing to compare different workloads or seeds: %v vs %v", o, n)
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	oldBy, newBy := byWorkload(oldRecs), byWorkload(newRecs)
	regressions := 0
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %9s %9s %9s  %s\n",
		"workload", "metric", "old_median", "new_median", "change", "old_sprd", "new_sprd", "verdict")
	for _, wl := range slices.Sorted(maps.Keys(oldBy)) {
		for _, b := range bounds.EndToEnd {
			series := func(recs []record) []float64 {
				var v []float64
				for _, r := range recs {
					v = append(v, r.Metrics[b.Name].Value)
				}
				return v
			}
			ov, nv := series(oldBy[wl]), series(newBy[wl])
			om, nm := median(ov), median(nv)
			oq1, oq3 := quartiles(ov)
			nq1, nq3 := quartiles(nv)
			ospread, nspread := (oq3-oq1)/om, (nq3-nq1)/nm
			worse := (nm - om) / om
			if b.Better == "higher" {
				worse = (om - nm) / om
			}
			verdict := "within bound"
			switch {
			case worse > b.Bound && max(ospread, nspread) > b.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > b.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < 0:
				verdict = "better (no gain claimed without paired runs)"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.4f %12.4f %+8.2f%% %9.4f %9.4f  %s\n",
				wl, b.Name, om, nm, (nm-om)/om*100, ospread, nspread, verdict)
		}
	}
	if regressions > 0 {
		return errors.New("at least one metric is worse than its bound")
	}
	return nil
}
