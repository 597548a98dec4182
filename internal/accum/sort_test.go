package accum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
)

func TestSortPairsAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		cols := make([]int32, n)
		vals := make([]float64, n)
		type pair struct {
			c int32
			v float64
		}
		ref := make([]pair, n)
		for i := 0; i < n; i++ {
			cols[i] = int32(rng.Intn(50)) // duplicates likely
			vals[i] = float64(i)
			ref[i] = pair{cols[i], vals[i]}
		}
		sortPairs(cols, vals)
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].c < ref[b].c })
		// Keys must match the reference exactly; values must stay paired
		// with their original key (compare multisets per key).
		for i := 0; i < n; i++ {
			if cols[i] != ref[i].c {
				return false
			}
		}
		// Check pairing: group values by key in both and compare sets.
		got := map[int32]map[float64]int{}
		want := map[int32]map[float64]int{}
		for i := 0; i < n; i++ {
			if got[cols[i]] == nil {
				got[cols[i]] = map[float64]int{}
			}
			got[cols[i]][vals[i]]++
			if want[ref[i].c] == nil {
				want[ref[i].c] = map[float64]int{}
			}
			want[ref[i].c][ref[i].v]++
		}
		for k, m := range want {
			for v, c := range m {
				if got[k][v] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsAdversarialPatterns(t *testing.T) {
	patterns := map[string]func(n int) []int32{
		"sorted": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(i)
			}
			return out
		},
		"reversed": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(n - i)
			}
			return out
		},
		"constant": func(n int) []int32 {
			return make([]int32, n)
		},
		"organ-pipe": func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				if i < n/2 {
					out[i] = int32(i)
				} else {
					out[i] = int32(n - i)
				}
			}
			return out
		},
	}
	for name, f := range patterns {
		for _, n := range []int{0, 1, 25, 100, 1000} {
			cols := f(n)
			vals := make([]float64, n)
			sortPairs(cols, vals)
			if !sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
				t.Fatalf("%s n=%d: not sorted", name, n)
			}
		}
	}
}

// distinctKeys returns n distinct keys in [lo, lo+span], always including
// both ends, so the row's key span is exactly span.
func distinctKeys(rng *rand.Rand, n int, lo int32, span int64) []int32 {
	if n == 1 {
		return []int32{lo}
	}
	seen := map[int32]bool{lo: true, int32(int64(lo) + span): true}
	keys := []int32{int32(int64(lo) + span), lo}
	for len(keys) < n {
		k := int32(int64(lo) + rng.Int63n(span+1))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// checkExtractSorted loads keys into h (values from val) and asserts that
// ExtractSorted equals ExtractUnsorted followed by sortPairs, writing
// exactly Len entries.
func checkExtractSorted[V semiring.Value](t *testing.T, h *HashTableG[V], keys []int32, val func(i int) V) {
	t.Helper()
	h.Reset()
	for i, k := range keys {
		p, fresh := h.Upsert(k)
		if !fresh {
			t.Fatalf("key %d inserted twice", k)
		}
		*p = val(i)
	}
	n := h.Len()
	wantCols, wantVals := make([]int32, n), make([]V, n)
	h.ExtractUnsorted(wantCols, wantVals)
	sortPairs(wantCols, wantVals)

	const slack = 3
	cols, vals := make([]int32, n+slack), make([]V, n+slack)
	for i := n; i < n+slack; i++ {
		cols[i] = -7
	}
	if got := h.ExtractSorted(cols, vals); got != n {
		t.Fatalf("ExtractSorted returned %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if cols[i] != wantCols[i] || vals[i] != wantVals[i] {
			t.Fatalf("n=%d entry %d: got (%d, %v), want (%d, %v)", n, i, cols[i], vals[i], wantCols[i], wantVals[i])
		}
	}
	for i := n; i < n+slack; i++ {
		if cols[i] != -7 {
			t.Fatalf("n=%d: wrote past Len at %d", n, i)
		}
	}
}

// TestExtractSortedMatchesSortPairs pins the bitmap-rank extraction to the
// comparison sort it replaces: around the density cutoff, at the key-range
// extremes, and over many rows through one table, where a stale bitmap bit
// would misplace a later row's entries.
func TestExtractSortedMatchesSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f64 := func(i int) float64 { return float64(i)*1.5 - 3 }
	i64 := func(i int) int64 { return int64(i)*7 - 11 }
	boolv := func(i int) bool { return i%3 == 0 }
	run := func(keys []int32) {
		t.Helper()
		checkExtractSorted(t, NewHashTableG[float64](int64(len(keys))), keys, f64)
		checkExtractSorted(t, NewHashTableG[int64](int64(len(keys))), keys, i64)
		checkExtractSorted(t, NewHashTableG[bool](int64(len(keys))), keys, boolv)
	}

	for _, n := range []int{1, 2, 3, rankMinKeys - 1, rankMinKeys, rankMinKeys + 1, 200, 1000} {
		cut := int64(rankSpanPerKey) * int64(n)
		for _, span := range []int64{int64(n - 1), cut - 1, cut, cut + 1, 4 * cut} {
			for _, lo := range []int32{0, 5, math.MaxInt32 - int32(span)} {
				run(distinctKeys(rng, n, lo, span))
			}
		}
	}
	// Both key-range extremes in one row: a span the rank path must refuse.
	run(distinctKeys(rng, 100, 0, math.MaxInt32))

	// The bitmap path must actually run on dense rows.
	h := NewHashTableG[float64](64)
	checkExtractSorted(t, h, distinctKeys(rng, 40, 100, 80), f64)
	if len(h.rank) == 0 || len(h.order) == 0 {
		t.Fatal("dense row did not take the bitmap-rank path")
	}

	// Many rows through one table, alternating dense and sparse, growing
	// and shrinking: leftover bits or ranks from one row must not leak.
	shared64 := NewHashTableG[float64](4096)
	sharedI := NewHashTableG[int64](4096)
	sharedB := NewHashTableG[bool](4096)
	for row := 0; row < 300; row++ {
		n := 1 + rng.Intn(1500)
		span := int64(n-1) + rng.Int63n(int64(rankSpanPerKey)*int64(n)*2)
		if row%5 == 0 {
			span = int64(n-1) + rng.Int63n(1<<30)
		}
		lo := int32(rng.Int63n(math.MaxInt32 - span))
		keys := distinctKeys(rng, n, lo, span)
		checkExtractSorted(t, shared64, keys, f64)
		checkExtractSorted(t, sharedI, keys, i64)
		checkExtractSorted(t, sharedB, keys, boolv)
	}
}
