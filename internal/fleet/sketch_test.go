package fleet

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rankRange returns how many elements of sorted are strictly below q and
// how many are ≤ q: the interval of ranks at which q sits in the exact
// distribution.
func rankRange(sorted []float64, q float64) (lo, hi float64) {
	lo = float64(sort.SearchFloat64s(sorted, q))
	hi = float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > q }))
	return lo, hi
}

// probePhis are the quantiles every sketch property test probes.
var probePhis = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// checkQuantiles asserts the sketch's provable contract against the exact
// sorted data: exact Count, Min, Max and Mean, and for every probed φ a
// returned value whose rank interval is within ErrorBound (+1 for the
// discretisation of φ·n) of the target rank.
func checkQuantiles(t *testing.T, s *Sketch, data []float64) {
	t.Helper()
	checkRanks(t, s, data, probePhis)
	var sum float64
	for _, v := range data {
		sum += v
	}
	n := float64(len(data))
	if got := s.Mean(); math.Abs(got-sum/n) > 1e-9*math.Max(1, math.Abs(sum/n)) {
		t.Fatalf("Mean = %g, want %g", got, sum/n)
	}
}

// checkRanks is the part of checkQuantiles that holds for any finite data,
// however it sums: exact Count, Min and Max, and every Quantile(φ) for φ
// in phis within ErrorBound (+1) ranks of the exact sorted quantile.
func checkRanks(t *testing.T, s *Sketch, data, phis []float64) {
	t.Helper()
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := float64(len(sorted))

	if s.Count() != uint64(len(data)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(data))
	}
	if got := s.Min(); got != sorted[0] {
		t.Fatalf("Min = %g, want %g", got, sorted[0])
	}
	if got := s.Max(); got != sorted[len(sorted)-1] {
		t.Fatalf("Max = %g, want %g", got, sorted[len(sorted)-1])
	}

	slack := float64(s.ErrorBound()) + 1
	for _, phi := range phis {
		q := s.Quantile(phi)
		lo, hi := rankRange(sorted, q)
		target := math.Min(math.Max(phi, 0), 1) * n
		if hi < target-slack || lo > target+slack {
			t.Fatalf("Quantile(%g) = %g: rank interval [%g, %g] misses target %g by more than bound %g (n=%d)",
				phi, q, lo, hi, target, slack, len(data))
		}
	}
}

// distributions the property tests stream through the sketch.
func testDistributions(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	uniform := make([]float64, n)
	normal := make([]float64, n)
	heavy := make([]float64, n)
	ascending := make([]float64, n)
	ties := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64()
		normal[i] = rng.NormFloat64()
		heavy[i] = math.Exp(3 * rng.NormFloat64())
		ascending[i] = float64(i)
		ties[i] = float64(i % 7)
	}
	descending := make([]float64, n)
	for i := range descending {
		descending[i] = float64(n - i)
	}
	return map[string][]float64{
		"uniform":    uniform,
		"normal":     normal,
		"heavy-tail": heavy,
		"ascending":  ascending,
		"descending": descending,
		"ties":       ties,
	}
}

func TestSketchQuantileBound(t *testing.T) {
	for _, n := range []int{1, 7, 100, 1000, 20000} {
		for name, data := range testDistributions(n, int64(n)) {
			for _, k := range []int{8, 64, 256} {
				s := NewSketch(k)
				for _, v := range data {
					s.Add(v)
				}
				t.Logf("n=%d dist=%s k=%d: size=%d bound=%d", n, name, k, s.Size(), s.ErrorBound())
				checkQuantiles(t, s, data)
			}
		}
	}
}

func TestSketchMergeBound(t *testing.T) {
	const n, parts = 9000, 13
	for name, data := range testDistributions(n, 99) {
		merged := NewSketch(64)
		for p := 0; p < parts; p++ {
			part := NewSketch(64)
			lo, hi := p*n/parts, (p+1)*n/parts
			for _, v := range data[lo:hi] {
				part.Add(v)
			}
			merged.Merge(part)
		}
		t.Logf("dist=%s merged: size=%d bound=%d", name, merged.Size(), merged.ErrorBound())
		checkQuantiles(t, merged, data)
	}
}

// TestSketchMemoryBound pins the O(k·log(n/k)) footprint: a million values
// through a k=256 sketch must retain only a few thousand.
func TestSketchMemoryBound(t *testing.T) {
	s := NewSketch(256)
	rng := rand.New(rand.NewSource(5))
	const n = 1_000_000
	for i := 0; i < n; i++ {
		s.Add(rng.Float64())
	}
	levels := math.Ceil(math.Log2(float64(n)/256)) + 2
	limit := int(levels) * 256
	if s.Size() > limit {
		t.Fatalf("Size = %d after %d values, want <= %d (k·levels)", s.Size(), n, limit)
	}
	// The worst-case certificate must also stay useful: the Munro–Paterson
	// bound is Θ(n·log(n/k)/k) ranks, ≈ 4.4 % here (the realised error is
	// far smaller — checkQuantiles asserts the certificate elsewhere).
	if frac := float64(s.ErrorBound()) / float64(n); frac > 0.05 {
		t.Fatalf("ErrorBound = %d (%.2f%% of ranks), want < 5%%", s.ErrorBound(), 100*frac)
	}
}

// TestSketchDeterminism: identical insert order ⇒ bit-identical state, and
// merge order is part of the contract (same order ⇒ same digest).
func TestSketchDeterminism(t *testing.T) {
	build := func() *Sketch {
		s := NewSketch(32)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5000; i++ {
			s.Add(rng.NormFloat64())
		}
		return s
	}
	d1, d2 := NewDigest(), NewDigest()
	build().AppendDigest(d1)
	build().AppendDigest(d2)
	if d1.Sum() != d2.Sum() {
		t.Fatalf("same insert order produced different digests: %s vs %s", d1.Sum(), d2.Sum())
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(0) // also exercises the k floor
	if s.Count() != 0 || s.Size() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty sketch not inert: count=%d size=%d mean=%g q50=%g",
			s.Count(), s.Size(), s.Mean(), s.Quantile(0.5))
	}
	s.Merge(nil)
	s.Merge(NewSketch(8))
	if s.Count() != 0 {
		t.Fatalf("merging empties changed count to %d", s.Count())
	}
}

// TestSketchWeightInvariant: the flattened total weight always equals the
// count, including after merges of odd-sized buffers — the invariant the
// even-prefix compaction preserves.
func TestSketchWeightInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(8)
	for round := 0; round < 50; round++ {
		other := NewSketch(8)
		for i := 0; i < rng.Intn(40)+1; i++ {
			other.Add(rng.Float64())
		}
		s.Merge(other)
		for i := 0; i < rng.Intn(15); i++ {
			s.Add(rng.Float64())
		}
		var w uint64
		for _, it := range s.flatten() {
			w += it.w
		}
		if w != s.Count() {
			t.Fatalf("round %d: total weight %d != count %d", round, w, s.Count())
		}
	}
}

// FuzzSketchMerge splits a fuzzed list of finite values across two to four
// sketches of one k, merges them, and holds the merged sketch to the same
// certificate as a single stream: exact Count, Min and Max, and every
// Quantile(φ), the fuzzed φ included, within ErrorBound ranks of the exact
// sorted quantile. raw is read as little-endian float64s; non-finite
// values are skipped.
func FuzzSketchMerge(f *testing.F) {
	enc := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), uint8(8), uint8(0), 0.5)
	f.Add(enc(3, 3, 3, -1, 0, 1e300, -1e300, 5e-324), uint8(8), uint8(2), 0.9)
	ramp := make([]float64, 300)
	for i := range ramp {
		ramp[i] = float64((i * 37) % 101)
	}
	f.Add(enc(ramp...), uint8(16), uint8(1), 0.25)
	f.Fuzz(func(t *testing.T, raw []byte, k, parts uint8, phi float64) {
		var data []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return
		}
		np := 2 + int(parts)%3
		sketches := make([]*Sketch, np)
		for p := range sketches {
			sketches[p] = NewSketch(int(k))
			for _, v := range data[p*len(data)/np : (p+1)*len(data)/np] {
				sketches[p].Add(v)
			}
		}
		merged := sketches[0]
		for _, s := range sketches[1:] {
			merged.Merge(s)
		}
		phis := probePhis
		if !math.IsNaN(phi) {
			phis = append(append([]float64(nil), probePhis...), phi)
		}
		checkRanks(t, merged, data, phis)
	})
}
