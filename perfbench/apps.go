package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/semiring"
	"repro/internal/spgemm"
)

// graph_apps: one op is an unsorted masked triangle count (CountFromLU:
// int64 ring, hash kernel with the L mask) followed by a 64-source MSBFS
// (bool ring, square x tall-skinny, AlgAuto) on one G500 graph — the
// paper's Sections 5.5 and 5.6. Many small products with little flop per
// row: per-call overhead (partition, pool dispatch, allocation, assembly)
// and the masked and non-float64 kernels carry this workload, while the
// float64 fast path and the recipe's A² branch barely run.
const (
	appsScale      = 13
	appsEdgeFactor = 16
	appsSources    = 64
	// appsLimitMs is the per-op latency limit, about 3x the op time on a
	// 2-CPU host.
	appsLimitMs = 400.0
)

// appsInputs are the generated graph and everything the checks need.
type appsInputs struct {
	adj       *matrix.CSR
	sources   []int32
	triangles int64
	levels    [][]int32 // serial BFS levels, vertex × source
	// frontiers[d] is the (vertex, source) pattern at BFS level d: the
	// right-hand side of MSBFS's d-th product.
	frontiers []*matrix.CSRG[bool]
	flop      int64 // useful flop of one op
	triFlop   int64
	triNNZ    int64 // nnz of the unmasked L·U
	triAccess spgemm.AccessStats
}

func runApps(cfg config, tr *tracer, r *run) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	in, err := prepareApps(rng)
	if err != nil {
		return err
	}
	r.counts["nnz_adj"] = in.adj.NNZ()
	r.counts["triangles"] = in.triangles
	r.counts["bfs_depth"] = len(in.frontiers) - 1
	r.counts["flop"] = in.flop
	r.counts["nnz_lu"] = in.triNNZ
	probeBandwidth(r, in.triAccess.MeanStanzaBytes())
	resetPeakRSS()

	var tri *graph.TriangleResult
	var g *matrix.CSR
	if err := timeSetups(r, func() error {
		var err error
		tri, g, err = prepareGraph(in.adj)
		return err
	}); err != nil {
		return err
	}

	// The traced run replays MSBFS's per-product recipe calls beside each
	// op: MSBFS resolves AlgAuto inside, out of the benchmark's reach.
	var at *matrix.CSRG[bool]
	if tr != nil {
		at = matrix.MapValues(g.Transpose(), func(v float64) bool { return v != 0 })
	}

	var st spgemm.ExecStats
	var triMs, bfsMs, recipe, collision, imbalance []float64
	var phases [spgemm.NumPhases][]float64
	before := readMem()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		triOpt := &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers, Unsorted: true}
		traced := tr != nil && op%2 == 0
		if traced {
			triOpt.Stats = &st
		}
		start := time.Now()
		count, err1 := graph.CountFromLU(tri.L, tri.U, triOpt)
		mid := time.Now()
		bfs, err2 := graph.MSBFS(g, in.sources, &spgemm.Options{Algorithm: spgemm.AlgAuto, Workers: workers})
		end := time.Now()

		if traced {
			id := tr.add("op", -1, op, start, end, false)
			tid := tr.add("graph.triangles", id, op, start, mid, false)
			addPhaseSpans(tr, &st, tid, op, start)
			tr.add("graph.msbfs", id, op, mid, end, false)
			triMs = append(triMs, ms(mid.Sub(start)))
			bfsMs = append(bfsMs, ms(end.Sub(mid)))
			for p := range phases {
				phases[p] = append(phases[p], ms(st.Phases[p]))
			}
			collision = append(collision, st.CollisionFactor())
			imbalance = append(imbalance, flopImbalance(&st))
			rs := time.Now()
			for _, f := range in.frontiers {
				spgemm.Recommend(at, f, true, spgemm.UseTallSkinny)
			}
			recipe = append(recipe, ms(time.Since(rs)))
		}

		d := end.Sub(start)
		r.addLat(ms(d), traced)
		r.busy += d.Seconds()
		r.attempted++
		r.sloAttempted++
		if err1 != nil || err2 != nil || !in.correct(count, bfs) {
			r.failed++
			continue
		}
		r.flop += float64(in.flop)
		if ms(d) <= appsLimitMs {
			r.sloMet++
		}
	}
	r.rps = float64(r.sloMet) / r.busy
	if tr != nil {
		memPerOp(r.layers, before, readMem(), r.attempted)
		r.layers["graph.prepare_ms"] = median(r.setup) * 1e3
		r.layers["graph.triangles_ms"] = medianOr(triMs)
		r.layers["graph.msbfs_ms"] = medianOr(bfsMs)
		r.layers["graph.msbfs_products"] = float64(len(in.frontiers))
		r.layers["spgemm.recipe_ms"] = medianOr(recipe)
		setPhaseLayers(r.layers, phases)
		r.layers["spgemm.compression_ratio"] = float64(in.triFlop) / float64(in.triNNZ)
		r.layers["accum.collision_factor"] = medianOr(collision)
		r.layers["sched.flop_imbalance"] = medianOr(imbalance)
		setBandwidthLayers(r, in.triAccess.TotalBytes())
	}
	return nil
}

// prepareGraph is the workload's set-up: the triangle-counting
// preprocessing and the symmetric, degree-ordered adjacency L + Lᵀ the
// BFS runs on.
func prepareGraph(adj *matrix.CSR) (*graph.TriangleResult, *matrix.CSR, error) {
	tri, err := graph.PrepareTriangles(adj)
	if err != nil {
		return nil, nil, err
	}
	g, err := matrix.Add(tri.L, tri.L.Transpose(), 1, 1)
	if err != nil {
		return nil, nil, err
	}
	return tri, g, nil
}

// prepareApps generates the graph and builds the references from paths
// independent of the ops: the triangle count through the unmasked naive
// product and a Hadamard filter, and BFS levels from a serial queue BFS.
func prepareApps(rng *rand.Rand) (*appsInputs, error) {
	in := &appsInputs{adj: gen.RMAT(appsScale, appsEdgeFactor, gen.G500Params, rng)}
	tri, g, err := prepareGraph(in.adj)
	if err != nil {
		return nil, err
	}

	toCount := func(v float64) int64 {
		if v != 0 {
			return 1
		}
		return 0
	}
	li := matrix.MapValues(tri.L, toCount)
	ui := matrix.MapValues(tri.U, toCount)
	full := matrix.NaiveMultiplyRing(semiring.PlusTimesI64{}, li, ui)
	masked, err := matrix.HadamardG(full, li)
	if err != nil {
		return nil, err
	}
	in.triangles = masked.Sum()
	in.triNNZ = full.NNZ()
	in.triFlop, _ = matrix.Flop(tri.L, tri.U)
	in.triAccess = spgemm.CollectAccessStats(tri.L, tri.U, in.triNNZ)

	// Sources: distinct vertices with at least one edge, drawn from the
	// seed.
	var candidates []int32
	for v := 0; v < g.Rows; v++ {
		if g.RowNNZ(v) > 0 {
			candidates = append(candidates, int32(v))
		}
	}
	if len(candidates) < appsSources {
		return nil, fmt.Errorf("graph has %d non-isolated vertices, need %d sources", len(candidates), appsSources)
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	in.sources = slices.Clone(candidates[:appsSources])

	in.levels = serialBFS(g, in.sources)
	depth := int32(0)
	for _, row := range in.levels {
		for _, l := range row {
			depth = max(depth, l)
		}
	}
	// MSBFS multiplies Gᵀ by the frontier of every level 0..depth; the
	// last product finds nothing new and ends the sweep.
	at := matrix.MapValues(g.Transpose(), func(v float64) bool { return v != 0 })
	in.flop = in.triFlop
	for d := int32(0); d <= depth; d++ {
		f := matrix.NewCOOG[bool](g.Rows, appsSources)
		for v, row := range in.levels {
			for s, l := range row {
				if l == d {
					f.Append(int32(v), int32(s), true)
				}
			}
		}
		fc := f.ToCSR()
		fl, _ := matrix.Flop(at, fc)
		in.flop += fl
		in.frontiers = append(in.frontiers, fc)
	}
	if in.triangles == 0 {
		return nil, errors.New("generated graph has no triangles")
	}
	return in, nil
}

// serialBFS returns level[v][s], the hop distance from sources[s] to v
// along g's edges, or -1.
func serialBFS(g *matrix.CSR, sources []int32) [][]int32 {
	level := make([][]int32, g.Rows)
	for v := range level {
		level[v] = make([]int32, len(sources))
		for s := range level[v] {
			level[v][s] = -1
		}
	}
	queue := make([]int32, 0, g.Rows)
	for s, src := range sources {
		queue = append(queue[:0], src)
		level[src][s] = 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			cols, _ := g.Row(int(u))
			for _, v := range cols {
				if level[v][s] < 0 {
					level[v][s] = level[u][s] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return level
}

// correct reports whether an op's triangle count and BFS levels match the
// references.
func (in *appsInputs) correct(count int64, bfs *graph.BFSResult) bool {
	if count != in.triangles || bfs == nil || len(bfs.Level) != len(in.levels) {
		return false
	}
	for v := range bfs.Level {
		if !slices.Equal(bfs.Level[v], in.levels[v]) {
			return false
		}
	}
	return true
}
