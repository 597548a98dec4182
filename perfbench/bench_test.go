package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

func TestSameProductCatchesCorruption(t *testing.T) {
	a := gen.RMAT(serveScale, 16, gen.G500Params, rand.New(rand.NewSource(3)))
	ref, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgAuto, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameProduct(c, ref) {
		t.Fatal("an uncorrupted AlgAuto product does not match the AlgHash reference")
	}
	corruptions := map[string]func(m *matrix.CSR){
		"value last bit": func(m *matrix.CSR) { m.Val[len(m.Val)/2] = math.Nextafter(m.Val[len(m.Val)/2], 2) },
		"column index":   func(m *matrix.CSR) { m.ColIdx[0]++ },
		"row pointer":    func(m *matrix.CSR) { m.RowPtr[1]++ },
		"sorted flag":    func(m *matrix.CSR) { m.Sorted = false },
		"dropped entry": func(m *matrix.CSR) {
			m.ColIdx, m.Val = m.ColIdx[:len(m.ColIdx)-1], m.Val[:len(m.Val)-1]
			m.RowPtr[len(m.RowPtr)-1]--
		},
	}
	for name, corrupt := range corruptions {
		bad := c.Clone()
		corrupt(bad)
		if sameProduct(bad, ref) {
			t.Errorf("%s: corrupted product accepted", name)
		}
	}
}

func TestAppsChecksCatchCorruption(t *testing.T) {
	in, err := prepareApps(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tri, g, err := prepareGraph(in.adj)
	if err != nil {
		t.Fatal(err)
	}
	count, err := graph.CountFromLU(tri.L, tri.U, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 2, Unsorted: true})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := graph.MSBFS(g, in.sources, &spgemm.Options{Algorithm: spgemm.AlgAuto, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !in.correct(count, bfs) {
		t.Fatalf("uncorrupted op rejected: %d triangles, want %d", count, in.triangles)
	}
	if in.correct(count+1, bfs) {
		t.Error("wrong triangle count accepted")
	}
	// Move one reached vertex one level further away.
	for v, row := range bfs.Level {
		if row[0] > 0 {
			bfs.Level[v][0]++
			break
		}
	}
	if in.correct(count, bfs) {
		t.Error("wrong BFS level accepted")
	}
}

// corrupter rewrites multiply answers once armed: metadata gets nnz+1, a
// returned matrix gets one value changed in its last byte.
func corrupter(armed *atomic.Bool) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !armed.Load() || r.URL.Path != "/v1/multiply" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
				var m map[string]any
				if err := json.Unmarshal(body, &m); err == nil {
					m["nnz"] = m["nnz"].(float64) + 1
					body, _ = json.Marshal(m)
				}
			} else if len(body) > 0 {
				body = bytes.Clone(body)
				body[len(body)-1] ^= 1 // last byte of the last value
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func TestServeCatchesCorruptedAnswers(t *testing.T) {
	in, err := prepareServe(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	env, err := startServe(in, corrupter(&armed))
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()

	sched := []request{
		{kind: kindMeta, index: 0},
		{kind: kindMatrix, index: 1, due: time.Millisecond},
		{kind: kindUpload, index: 3, due: 2 * time.Millisecond},
	}
	for _, o := range env.phase(sched, 0) {
		if o.err != nil {
			t.Fatalf("uncorrupted request failed: %v", o.err)
		}
	}
	armed.Store(true)
	for i, o := range env.phase(sched, 0) {
		if o.err == nil {
			t.Errorf("request %d (kind %d): corrupted answer accepted", i, sched[i].kind)
		}
	}
}

func TestSeedRepeatsExactly(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	a1, err := prepareApps(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := prepareApps(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if a1.flop != a2.flop || a1.triangles != a2.triangles || a1.triNNZ != a2.triNNZ ||
		!slices.Equal(a1.sources, a2.sources) || len(a1.frontiers) != len(a2.frontiers) {
		t.Error("graph_apps inputs differ between two preparations from one seed")
	}
	s1, err := prepareServe(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := prepareServe(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.operands {
		if s1.operands[i].hash != s2.operands[i].hash {
			t.Fatalf("serve_replay operand %d differs between two preparations from one seed", i)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.add("op", -1, 0, at(0), at(10), false)
	call := tr.add("call", op, 0, at(1), at(8), false)
	tr.add("phase", call, 0, at(1), at(4), true)
	tr.add("phase", call, 0, at(3), at(6), true) // overlaps the first: counted once
	sum := tr.summarize()
	self := map[string]float64{}
	for _, l := range sum.Layers {
		self[l.Name] = l.SelfMs
	}
	want := map[string]float64{"op": 3, "call": 2, "phase": 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if sum.Ops != 1 || math.Abs(sum.Coverage-0.7) > 1e-9 || math.Abs(sum.UnexplainedMs-3) > 1e-9 {
		t.Errorf("ops %d coverage %v unexplained %v; want 1, 0.7, 3", sum.Ops, sum.Coverage, sum.UnexplainedMs)
	}
}

func TestCompareRefusesDifferentHostsAndCounts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"op_p50_ms","better":"lower","bound":0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := func(p50 float64, cpu string, flop int) string {
		r := record{
			Workload: "g500_square", Seed: 1, Seconds: 20,
			Fingerprint: fingerprint{CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24",
				Counts: map[string]any{"flop": flop}},
			Metrics: map[string]metric{"op_p50_ms": {p50, "ms"}},
		}
		b, _ := json.Marshal(map[string]any{"record": r})
		return string(b) + "\n"
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	base := write("base.jsonl", rec(100, "cpu", 7)+rec(102, "cpu", 7))
	otherSeed := strings.Replace(rec(101, "cpu", 7), `"seed":1`, `"seed":2`, 1)
	if err := compareFiles(&out, base, write("seed.jsonl", otherSeed), bench); err == nil {
		t.Error("runs on different seeds compared")
	}
	if err := compareFiles(&out, base, write("same.jsonl", rec(101, "cpu", 7)), bench); err != nil {
		t.Fatalf("comparable runs refused: %v", err)
	}
	if err := compareFiles(&out, base, write("host.jsonl", rec(101, "other", 7)), bench); err == nil {
		t.Error("runs from different hosts compared")
	}
	if err := compareFiles(&out, base, write("counts.jsonl", rec(101, "cpu", 8)), bench); err == nil {
		t.Error("runs with different counts compared")
	}
	if err := compareFiles(&out, base, write("slow.jsonl", rec(150, "cpu", 7)), bench); err == nil {
		t.Error("a 49% slower median passed a 0.2 bound")
	}
}
