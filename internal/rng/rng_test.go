package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs in 1000 draws", same)
	}
}

func TestSeedZeroValid(t *testing.T) {
	r := New(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("seed 0 produced all-zero state")
	}
	// Must still look random.
	var ones int
	for i := 0; i < 64; i++ {
		ones += int(r.Uint64() & 1)
	}
	if ones < 10 || ones > 54 {
		t.Fatalf("seed 0 low-bit population badly skewed: %d/64", ones)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

// TestIntnUniform checks every residue class of a small n receives close to
// its fair share — this is exactly the modulo-bias trap Lemire's method
// avoids.
func TestIntnUniform(t *testing.T) {
	r := New(12345)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	exp := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// 6 degrees of freedom; 99.9th percentile of chi^2_6 is 22.46.
	if chi2 > 22.46 {
		t.Fatalf("Intn(7) chi-square %.2f exceeds 22.46; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 5, 33, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermIntoMatchesInvariant(t *testing.T) {
	r := New(8)
	buf := make([]int, 16)
	for trial := 0; trial < 50; trial++ {
		r.PermInto(buf)
		seen := make([]bool, len(buf))
		for _, v := range buf {
			if v < 0 || v >= len(buf) || seen[v] {
				t.Fatalf("PermInto produced non-permutation %v", buf)
			}
			seen[v] = true
		}
	}
}

// TestPermUniform verifies all 6 permutations of 3 elements appear with
// roughly equal frequency.
func TestPermUniform(t *testing.T) {
	r := New(555)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 distinct permutations, got %d", len(counts))
	}
	for k, c := range counts {
		if c < draws/6-draws/60 || c > draws/6+draws/60 {
			t.Fatalf("permutation %v frequency %d deviates >10%% from %d", k, c, draws/6)
		}
	}
}

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference values for seed 1234567 from the public-domain SplitMix64.
	s := uint64(1234567)
	got := []uint64{SplitMix64(&s), SplitMix64(&s), SplitMix64(&s)}
	// Verify the internal counter advanced by golden-ratio increments.
	var want uint64 = 1234567
	for i := 0; i < 3; i++ {
		want += 0x9E3779B97F4A7C15
	}
	if s != want {
		t.Fatalf("state advanced incorrectly: %d", s)
	}
	// All outputs distinct and nonzero.
	if got[0] == got[1] || got[1] == got[2] || got[0] == 0 {
		t.Fatalf("suspicious SplitMix64 outputs %v", got)
	}
}

func TestChaoticSeederDeterministic(t *testing.T) {
	a := NewChaoticSeeder(2024)
	b := NewChaoticSeeder(2024)
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("seed %d differs for identical masters", i)
		}
	}
}

func TestChaoticSeederDistinctMasters(t *testing.T) {
	a := NewChaoticSeeder(1).Seeds(200)
	b := NewChaoticSeeder(2).Seeds(200)
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("masters 1 and 2 collided at position %d", i)
		}
	}
}

func TestChaoticSeederNoDuplicates(t *testing.T) {
	seen := map[uint64]bool{}
	c := NewChaoticSeeder(777)
	for i := 0; i < 10000; i++ {
		s := c.Next()
		if seen[s] {
			t.Fatalf("duplicate seed %#x at position %d", s, i)
		}
		seen[s] = true
	}
}

// TestChaoticSeederBitBalance: across many seeds, each bit position should be
// set about half the time — the "equity" property §III-B3 asks of walker
// seeds.
func TestChaoticSeederBitBalance(t *testing.T) {
	c := NewChaoticSeeder(31415)
	const n = 20000
	var ones [64]int
	for i := 0; i < n; i++ {
		s := c.Next()
		for b := 0; b < 64; b++ {
			if s&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.47 || frac > 0.53 {
			t.Fatalf("bit %d set fraction %.4f outside [0.47, 0.53]", b, frac)
		}
	}
}

func TestChaoticOrbitStaysInterior(t *testing.T) {
	c := NewChaoticSeeder(9)
	for i := 0; i < 100000; i++ {
		c.step()
		if c.x <= 0 || c.x >= 1 || math.IsNaN(c.x) {
			t.Fatalf("orbit escaped (0,1) at step %d: %v", i, c.x)
		}
	}
}

// Property: Intn is always within bounds for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 10; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PermInto always yields a valid permutation for arbitrary seeds.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := make([]int, n)
		New(seed).PermInto(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: chaotic seeders with equal masters agree on arbitrary prefixes.
func TestQuickChaoticReplay(t *testing.T) {
	f := func(master uint64, kRaw uint8) bool {
		k := int(kRaw%50) + 1
		a := NewChaoticSeeder(master).Seeds(k)
		b := NewChaoticSeeder(master).Seeds(k)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(23)
	}
	_ = sink
}

func BenchmarkChaoticNext(b *testing.B) {
	c := NewChaoticSeeder(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += c.Next()
	}
	_ = sink
}
