package mrf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/img"
)

// uniformModel builds a tiny model with a data term that prefers
// label == (x+y) mod M and squared-difference smoothness.
func testModel(w, h, m int) *Model {
	return &Model{
		W: w, H: h, M: m,
		T:       1,
		LambdaS: 1, LambdaD: 0.5,
		Singleton: func(x, y, label int) float64 {
			want := (x + y) % m
			return SquaredDiff(label, want)
		},
		Doubleton: SquaredDiff,
	}
}

func TestValidate(t *testing.T) {
	m := testModel(4, 4, 3)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []func(*Model){
		func(m *Model) { m.W = 0 },
		func(m *Model) { m.M = 1 },
		func(m *Model) { m.T = 0 },
		func(m *Model) { m.Singleton = nil },
		func(m *Model) { m.Doubleton = nil },
		func(m *Model) { m.LambdaD = -1 },
	}
	for i, mutate := range bad {
		mm := testModel(4, 4, 3)
		mutate(mm)
		if err := mm.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestSiteEnergyMatchesManual checks Eq. 1's five-clique sum against a
// hand computation on an interior site.
func TestSiteEnergyMatchesManual(t *testing.T) {
	m := testModel(3, 3, 4)
	lm := img.NewLabelMap(3, 3)
	// neighbors of (1,1): left(0,1)=1, right(2,1)=2, up(1,0)=3, down(1,2)=0
	lm.Set(0, 1, 1)
	lm.Set(2, 1, 2)
	lm.Set(1, 0, 3)
	lm.Set(1, 2, 0)
	label := 2
	// singleton: want (1+1)%4=2, (2-2)^2 = 0
	want := 0.0
	// doubletons: 0.5 * [(2-1)^2 + (2-2)^2 + (2-3)^2 + (2-0)^2] = 0.5*6
	want += 0.5 * 6
	if got := m.SiteEnergy(lm, 1, 1, label); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SiteEnergy = %v, want %v", got, want)
	}
}

// TestBorderSitesSkipMissingCliques verifies that a corner site only sums
// its two existing neighbor cliques.
func TestBorderSitesSkipMissingCliques(t *testing.T) {
	m := testModel(3, 3, 4)
	lm := img.NewLabelMap(3, 3)
	lm.Set(1, 0, 3)
	lm.Set(0, 1, 2)
	// corner (0,0), label 0: singleton (0-0)^2 = 0;
	// neighbors right=(1,0)=3 and down=(0,1)=2: 0.5*(9+4)
	want := 0.5 * 13
	if got := m.SiteEnergy(lm, 0, 0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("corner SiteEnergy = %v, want %v", got, want)
	}
}

// TestConditionalEnergiesMatchSiteEnergy: the vectorized path must agree
// with per-label SiteEnergy calls for every site and label.
func TestConditionalEnergiesMatchSiteEnergy(t *testing.T) {
	m := testModel(5, 4, 3)
	lm := img.NewLabelMap(5, 4)
	for i := range lm.Labels {
		lm.Labels[i] = uint8(i % 3)
	}
	var buf []float64
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			buf = m.ConditionalEnergies(buf, lm, x, y)
			for l := 0; l < m.M; l++ {
				want := m.SiteEnergy(lm, x, y, l)
				if math.Abs(buf[l]-want) > 1e-12 {
					t.Fatalf("(%d,%d) label %d: %v != %v", x, y, l, buf[l], want)
				}
			}
		}
	}
}

func TestConditionalProbsNormalized(t *testing.T) {
	m := testModel(4, 4, 5)
	lm := img.NewLabelMap(4, 4)
	var buf []float64
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			buf = m.ConditionalProbs(buf, lm, x, y)
			sum := 0.0
			for _, p := range buf {
				if p < 0 || p > 1 {
					t.Fatalf("probability %v out of range", p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("probs sum to %v", sum)
			}
		}
	}
}

// TestConditionalProbsBoltzmann checks the exponential form directly:
// p(a)/p(b) == exp(-(E(a)-E(b))/T).
func TestConditionalProbsBoltzmann(t *testing.T) {
	m := testModel(3, 3, 4)
	m.T = 2.5
	lm := img.NewLabelMap(3, 3)
	es := m.ConditionalEnergies(nil, lm, 1, 1)
	ps := m.ConditionalProbs(nil, lm, 1, 1)
	for a := 0; a < m.M; a++ {
		for b := 0; b < m.M; b++ {
			wantRatio := math.Exp(-(es[a] - es[b]) / m.T)
			gotRatio := ps[a] / ps[b]
			if math.Abs(gotRatio-wantRatio) > 1e-9*wantRatio {
				t.Fatalf("ratio(%d,%d) = %v, want %v", a, b, gotRatio, wantRatio)
			}
		}
	}
}

// TestTotalEnergyDeltaConsistency: flipping one site changes TotalEnergy
// by exactly the difference in SiteEnergy. This pins the "each clique
// counted once" bookkeeping.
func TestTotalEnergyDeltaConsistency(t *testing.T) {
	m := testModel(5, 5, 4)
	lm := img.NewLabelMap(5, 5)
	for i := range lm.Labels {
		lm.Labels[i] = uint8((i * 7) % 4)
	}
	for _, site := range [][2]int{{0, 0}, {2, 2}, {4, 4}, {0, 3}, {4, 0}} {
		x, y := site[0], site[1]
		old := lm.At(x, y)
		newLabel := (old + 1) % m.M
		before := m.TotalEnergy(lm)
		eOld := m.SiteEnergy(lm, x, y, old)
		eNew := m.SiteEnergy(lm, x, y, newLabel)
		lm.Set(x, y, newLabel)
		after := m.TotalEnergy(lm)
		lm.Set(x, y, old)
		if math.Abs((after-before)-(eNew-eOld)) > 1e-9 {
			t.Fatalf("site (%d,%d): ΔTotal=%v, ΔSite=%v", x, y, after-before, eNew-eOld)
		}
	}
}

// TestCheckerboardIsProper2Coloring: no two 4-neighbors share a color and
// the two color classes partition the grid.
func TestCheckerboardIsProper2Coloring(t *testing.T) {
	w, h := 7, 5
	s0 := CheckerboardSites(w, h, 0)
	s1 := CheckerboardSites(w, h, 1)
	if len(s0)+len(s1) != w*h {
		t.Fatalf("partition sizes %d+%d != %d", len(s0), len(s1), w*h)
	}
	for _, s := range s0 {
		for _, off := range NeighborOffsets {
			nx, ny := s[0]+off[0], s[1]+off[1]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			if Color(nx, ny) == 0 {
				t.Fatalf("neighbors (%v) and (%d,%d) share color", s, nx, ny)
			}
		}
	}
}

func TestSquaredDiff(t *testing.T) {
	if SquaredDiff(3, 7) != 16 || SquaredDiff(7, 3) != 16 || SquaredDiff(5, 5) != 0 {
		t.Fatal("SquaredDiff wrong")
	}
}

func TestTruncatedQuadratic(t *testing.T) {
	f := TruncatedQuadratic(9)
	if f(0, 2) != 4 {
		t.Fatal("below cap wrong")
	}
	if f(0, 5) != 9 {
		t.Fatal("cap not applied")
	}
}

func TestPotts(t *testing.T) {
	f := Potts(2.5)
	if f(3, 3) != 0 || f(3, 4) != 2.5 {
		t.Fatal("Potts wrong")
	}
}

func TestVectorSpaceRoundTrip(t *testing.T) {
	v := VectorSpace{R: 3}
	if v.Size() != 49 {
		t.Fatalf("Size = %d", v.Size())
	}
	for l := 0; l < v.Size(); l++ {
		dx, dy := v.Vec(l)
		if dx < -3 || dx > 3 || dy < -3 || dy > 3 {
			t.Fatalf("Vec(%d) = (%d,%d) outside window", l, dx, dy)
		}
		if v.Index(dx, dy) != l {
			t.Fatalf("Index(Vec(%d)) = %d", l, v.Index(dx, dy))
		}
	}
}

func TestVectorSpacePanics(t *testing.T) {
	v := VectorSpace{R: 2}
	for _, f := range []func(){
		func() { v.Vec(-1) },
		func() { v.Vec(25) },
		func() { v.Index(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: SquaredDiffVec is symmetric, non-negative, and zero iff the
// labels coincide.
func TestSquaredDiffVecProperties(t *testing.T) {
	v := VectorSpace{R: 3}
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % v.Size()
		b := int(bRaw) % v.Size()
		d := v.SquaredDiffVec(a, b)
		if d < 0 || d != v.SquaredDiffVec(b, a) {
			return false
		}
		return (d == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredDiffVecValue(t *testing.T) {
	v := VectorSpace{R: 3}
	a := v.Index(-1, 2)
	b := v.Index(2, -2)
	// (2-(-1))^2 + (-2-2)^2 = 9 + 16
	if got := v.SquaredDiffVec(a, b); got != 25 {
		t.Fatalf("SquaredDiffVec = %v, want 25", got)
	}
}

// TestCompileIntegerGate: only integer-energy models compile. A model
// with a non-integral entry, an entry above the LUT cap, or a summed
// gap span too wide for the LUT keeps no tables (so no kernel), and
// recompiling a compiled model that no longer passes drops its tables.
// A model that passes evaluates every energy bit-identically to the
// closure path.
func TestCompileIntegerGate(t *testing.T) {
	intModel := func() *Model {
		m := testModel(7, 5, 4)
		m.LambdaD, m.Hood, m.LambdaDiag = 3, SecondOrder, 2
		return m
	}
	m := intModel()
	if err := m.Compile(); err != nil {
		t.Fatal(err)
	}
	if !m.Compiled() || m.Kernel() == nil {
		t.Fatal("integer model did not compile")
	}
	lm := img.NewLabelMap(m.W, m.H)
	for i := range lm.Labels {
		lm.Labels[i] = uint8((i * 7) % m.M)
	}
	ref := intModel()
	if got, want := m.TotalEnergy(lm), ref.TotalEnergy(lm); got != want {
		t.Fatalf("TotalEnergy: table %v, closure %v", got, want)
	}
	var a, b []float64
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			a = m.ConditionalEnergies(a, lm, x, y)
			b = ref.ConditionalEnergies(b, lm, x, y)
			for l := range a {
				if a[l] != b[l] || m.SiteEnergy(lm, x, y, l) != b[l] {
					t.Fatalf("site (%d,%d) label %d: table %v, closure %v", x, y, l, a[l], b[l])
				}
			}
		}
	}

	rejected := map[string]func(*Model){
		"non-integral":    func(m *Model) { m.LambdaS = 0.5 },
		"entry-above-cap": func(m *Model) { m.LambdaD = maxRateLUT },
		"span-above-cap":  func(m *Model) { m.LambdaD = maxRateLUT / 16 },
	}
	for name, mutate := range rejected {
		fresh := intModel()
		mutate(fresh)
		if err := fresh.Compile(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fresh.Compiled() || fresh.Kernel() != nil {
			t.Fatalf("%s: model compiled despite failing the integer gate", name)
		}
		recompiled := intModel()
		if err := recompiled.Compile(); err != nil {
			t.Fatal(err)
		}
		mutate(recompiled)
		if err := recompiled.Compile(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if recompiled.Compiled() {
			t.Fatalf("%s: stale tables survived a failed recompile", name)
		}
	}
}
