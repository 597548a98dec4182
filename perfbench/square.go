package main

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/spgemm"
)

// g500_square: A² of one G500 R-MAT matrix, sorted output, AlgAuto, one
// reused Context, one full Multiply per op — the paper's headline scenario
// (Figures 10-12). The power-law rows make the recipe, the symbolic and
// numeric phases, accumulator probing and the flop partition do nearly all
// the work; server, wire and graph code do none.
const (
	squareScale      = 13
	squareEdgeFactor = 16
	// squareLimitMs is the per-op latency limit, about 2.5x the op time
	// on a 2-CPU host.
	squareLimitMs = 500.0
)

func runSquare(cfg config, tr *tracer, r *run) error {
	a := gen.RMAT(squareScale, squareEdgeFactor, gen.G500Params, rand.New(rand.NewSource(cfg.seed)))
	flop, _ := matrix.Flop(a, a)

	// The AlgHash product is the bit-identity reference; it must itself
	// agree with the sequential map-accumulator oracle.
	ref, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: workers})
	if err != nil {
		return err
	}
	if !ref.Sorted || !matrix.EqualApprox(ref, matrix.NaiveMultiply(a, a), 1e-9) {
		return errors.New("the AlgHash reference disagrees with matrix.NaiveMultiply")
	}
	resolved := spgemm.Recommend(a, a, true, spgemm.UseSquare)
	r.counts["nnz_a"] = a.NNZ()
	r.counts["flop"] = flop
	r.counts["nnz_c"] = ref.NNZ()
	r.counts["auto_alg"] = resolved.String()
	access := spgemm.CollectAccessStats(a, a, ref.NNZ())
	probeBandwidth(r, access.MeanStanzaBytes())
	resetPeakRSS()

	var ctx *spgemm.Context
	if err := timeSetups(r, func() error {
		ctx = spgemm.NewContext()
		c, err := spgemm.Multiply(a, a, &spgemm.Options{Algorithm: spgemm.AlgAuto, Workers: workers, Context: ctx})
		if err != nil {
			return err
		}
		if !sameProduct(c, ref) {
			return errors.New("cold first product differs from the AlgHash reference")
		}
		return nil
	}); err != nil {
		return err
	}

	opt := spgemm.Options{Algorithm: spgemm.AlgAuto, Workers: workers, Context: ctx}
	var st spgemm.ExecStats
	var recipe, collision, imbalance []float64
	var phases [spgemm.NumPhases][]float64
	before := readMem()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		var c *matrix.CSR
		start := time.Now()
		var end time.Time
		traced := tr != nil && op%2 == 0
		if !traced {
			c, err = spgemm.Multiply(a, a, &opt)
			end = time.Now()
		} else {
			// Traced: the recipe runs as its own call so its time shows;
			// the multiply then takes the algorithm it chose, which is the
			// work AlgAuto does inside Multiply.
			topt := opt
			topt.Algorithm = spgemm.Recommend(a, a, true, spgemm.UseSquare)
			picked := time.Now()
			topt.Stats = &st
			c, err = spgemm.Multiply(a, a, &topt)
			end = time.Now()
			id := tr.add("op", -1, op, start, end, false)
			tr.add("spgemm.recipe", id, op, start, picked, false)
			mid := tr.add("spgemm.multiply", id, op, picked, end, false)
			addPhaseSpans(tr, &st, mid, op, picked)
			recipe = append(recipe, ms(picked.Sub(start)))
			for p := range phases {
				phases[p] = append(phases[p], ms(st.Phases[p]))
			}
			collision = append(collision, st.CollisionFactor())
			imbalance = append(imbalance, flopImbalance(&st))
		}
		d := end.Sub(start)
		r.addLat(ms(d), traced)
		r.busy += d.Seconds()
		r.attempted++
		r.sloAttempted++
		if err != nil || !sameProduct(c, ref) {
			r.failed++
			continue
		}
		r.flop += float64(flop)
		if ms(d) <= squareLimitMs {
			r.sloMet++
		}
	}
	r.rps = float64(r.sloMet) / r.busy
	if tr != nil {
		memPerOp(r.layers, before, readMem(), r.attempted)
		r.layers["spgemm.recipe_ms"] = medianOr(recipe)
		setPhaseLayers(r.layers, phases)
		r.layers["spgemm.compression_ratio"] = float64(flop) / float64(ref.NNZ())
		r.layers["accum.collision_factor"] = medianOr(collision)
		r.layers["sched.flop_imbalance"] = medianOr(imbalance)
		setBandwidthLayers(r, access.TotalBytes())
	}
	return nil
}

// sameProduct reports whether c is sorted and bit-identical to the AlgHash
// reference.
func sameProduct(c, ref *matrix.CSR) bool {
	return c != nil && c.Sorted && matrix.Equal(c, ref)
}

// addPhaseSpans records the kernel phases of st as children of parent,
// laid back to back from start (ExecStats reports durations, not times).
func addPhaseSpans(tr *tracer, st *spgemm.ExecStats, parent, op int, start time.Time) {
	for _, ps := range st.PhaseSpans() {
		s := start.Add(ps.Offset)
		tr.add("spgemm."+ps.Phase.String(), parent, op, s, s.Add(ps.Dur), true)
	}
}

// setPhaseLayers fills spgemm.<phase>_ms with the per-op medians.
func setPhaseLayers(layers map[string]float64, phases [spgemm.NumPhases][]float64) {
	for p := spgemm.Phase(0); p < spgemm.NumPhases; p++ {
		layers["spgemm."+p.String()+"_ms"] = medianOr(phases[p])
	}
}

// setBandwidthLayers reports the computed bytes one product moves and the
// share of the measured stanza bandwidth the numeric phase reaches.
func setBandwidthLayers(r *run, bytes int64) {
	r.layers["spgemm.numeric_bytes"] = float64(bytes)
	if t := r.layers["spgemm.numeric_ms"]; t > 0 && r.stanzaGBs > 0 {
		r.layers["spgemm.numeric_pct_bw"] = float64(bytes) / (t / 1e3) / (r.stanzaGBs * 1e9) * 100
	}
}

// flopImbalance is the slowest worker's flop over the mean.
func flopImbalance(st *spgemm.ExecStats) float64 {
	var sum, hi int64
	for _, w := range st.Workers {
		sum += w.Flop
		hi = max(hi, w.Flop)
	}
	if sum == 0 {
		return 0
	}
	return float64(hi) * float64(len(st.Workers)) / float64(sum)
}
