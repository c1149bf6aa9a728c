package fp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStrictIsStrict(t *testing.T) {
	if !Strict.IsStrict() {
		t.Fatal("Strict.IsStrict() = false")
	}
	if (Semantics{}).Normalize() != Strict {
		t.Fatal("zero Semantics does not normalize to Strict")
	}
	if (Semantics{FuseFMA: true}).IsStrict() {
		t.Fatal("FMA semantics reported strict")
	}
}

func TestSemanticsString(t *testing.T) {
	cases := []struct {
		sem  Semantics
		want string
	}{
		{Strict, "strict"},
		{Semantics{FuseFMA: true, ReassocWidth: 1}, "fma"},
		{Semantics{ReassocWidth: 4}, "w4"},
		{Semantics{FuseFMA: true, ReassocWidth: 4, UnsafeMath: true}, "fma,w4,unsafe"},
		{Semantics{ReassocWidth: 1, ExtendedPrecision: true}, "extprec"},
		{Semantics{ReassocWidth: 1, FlushSubnormals: true, ApproxMath: true}, "ftz,approx"},
	}
	for _, c := range cases {
		if got := c.sem.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.sem, got, c.want)
		}
	}
}

func TestStrictArithmeticMatchesIEEE(t *testing.T) {
	e := NewEnv(Strict)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		return e.Add(a, b) == a+b &&
			e.Sub(a, b) == a-b &&
			e.Mul(a, b) == a*b &&
			(b == 0 || e.Div(a, b) == a/b) &&
			e.MulAdd(a, b, c) == a*b+c &&
			e.MulSub(a, b, c) == a*b-c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFMAContractionChangesResults(t *testing.T) {
	strict := NewEnv(Strict)
	fma := NewEnv(Semantics{FuseFMA: true, ReassocWidth: 1})
	// A case where fused and unfused differ: product rounding error matters.
	a, b := 1.0+0x1p-30, 1.0-0x1p-30
	c := -1.0
	s := strict.MulAdd(a, b, c)
	f := fma.MulAdd(a, b, c)
	if s == f {
		t.Fatalf("expected FMA to differ: strict=%g fma=%g", s, f)
	}
	if f != math.FMA(a, b, c) {
		t.Fatalf("fused result %g != math.FMA %g", f, math.FMA(a, b, c))
	}
}

func TestReassociationChangesLongSums(t *testing.T) {
	xs := make([]float64, 1000)
	v := 0.1
	for i := range xs {
		xs[i] = v
		v = math.Mod(v*1.3+0.7, 1.0) // deterministic ill-conditioned-ish data
	}
	seq := NewEnv(Strict).Sum(xs)
	w4 := NewEnv(Semantics{ReassocWidth: 4}).Sum(xs)
	w8 := NewEnv(Semantics{ReassocWidth: 8}).Sum(xs)
	if seq == w4 && seq == w8 {
		t.Fatal("expected reassociated sums to differ from sequential")
	}
	// All must be within a tight relative error of each other.
	if rel := math.Abs(seq-w4) / math.Abs(seq); rel > 1e-12 {
		t.Fatalf("w4 deviation too large: %g", rel)
	}
}

func TestReassociationSameWidthIsDeterministic(t *testing.T) {
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	for _, w := range []uint8{1, 2, 4, 8} {
		a := NewEnv(Semantics{ReassocWidth: w}).Sum(xs)
		b := NewEnv(Semantics{ReassocWidth: w}).Sum(xs)
		if a != b {
			t.Fatalf("width %d not deterministic: %g vs %g", w, a, b)
		}
	}
}

func TestExtendedPrecisionSumIsMoreAccurate(t *testing.T) {
	// Sum of many small values onto a large one: extended precision must be
	// at least as accurate as plain double accumulation.
	xs := make([]float64, 10001)
	xs[0] = 1e16
	for i := 1; i < len(xs); i++ {
		xs[i] = 1.0
	}
	exact := 1e16 + 10000.0
	plain := NewEnv(Strict).Sum(xs)
	ext := NewEnv(Semantics{ReassocWidth: 1, ExtendedPrecision: true}).Sum(xs)
	if math.Abs(ext-exact) > math.Abs(plain-exact) {
		t.Fatalf("extended precision less accurate: ext=%g plain=%g exact=%g", ext, plain, exact)
	}
	if ext == plain {
		t.Fatal("expected extended precision to change this sum")
	}
}

func TestUnsafeDivReciprocal(t *testing.T) {
	strict := NewEnv(Strict)
	unsafe := NewEnv(Semantics{ReassocWidth: 1, UnsafeMath: true})
	// 1/49 then *7 differs from 7/49 in the last ulp.
	diffs := 0
	for i := 1; i < 2000; i++ {
		a, b := float64(i), float64(3*i+1)
		if strict.Div(a, b) != unsafe.Div(a, b) {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("reciprocal division never differed from true division")
	}
}

func TestUnsafeSumReassociation(t *testing.T) {
	strict := NewEnv(Strict)
	unsafe := NewEnv(Semantics{ReassocWidth: 1, UnsafeMath: true})
	a, b, c := 1e16, -1e16, 1.0
	if strict.Sum3(a, c, b) == unsafe.Sum3(a, c, b) {
		t.Log("catastrophic case did not differ; checking a broader sweep")
	}
	diff := false
	x := 0.1
	for i := 0; i < 1000 && !diff; i++ {
		p, q, r := x, x*1.7, x*0.3
		if strict.Sum3(p, q, r) != unsafe.Sum3(p, q, r) {
			diff = true
		}
		x = math.Mod(x*9.7+0.123, 10)
	}
	if !diff {
		t.Fatal("unsafe Sum3 reassociation never changed a result")
	}
}

func TestFlushSubnormals(t *testing.T) {
	ftz := NewEnv(Semantics{ReassocWidth: 1, FlushSubnormals: true})
	sub := 0x1p-1040
	if got := ftz.Mul(sub, 1); got != 0 {
		t.Fatalf("FTZ Mul(subnormal,1) = %g, want 0", got)
	}
	if got := ftz.Add(sub, sub); got != 0 {
		t.Fatalf("FTZ Add = %g, want 0", got)
	}
	if got := ftz.Mul(1.5, 2); got != 3 {
		t.Fatalf("FTZ changed a normal result: %g", got)
	}
	strict := NewEnv(Strict)
	if got := strict.Mul(sub, 1); got != sub {
		t.Fatalf("strict flushed a subnormal: %g", got)
	}
}

func TestApproxSqrtCloseButNotAlwaysEqual(t *testing.T) {
	diffs, n := 0, 0
	x := 1.000001
	for i := 0; i < 5000; i++ {
		exact := math.Sqrt(x)
		apx := approxSqrt(x)
		rel := math.Abs(apx-exact) / exact
		if rel > 1e-14 {
			t.Fatalf("approxSqrt(%g) rel error %g too large", x, rel)
		}
		if apx != exact {
			diffs++
		}
		n++
		x *= 1.0137
	}
	if diffs == 0 {
		t.Fatal("approxSqrt never differed from math.Sqrt")
	}
	if diffs == n {
		t.Log("approxSqrt differed on every input (acceptable but surprising)")
	}
}

func TestApproxSqrtSpecialCases(t *testing.T) {
	if approxSqrt(0) != 0 {
		t.Error("approxSqrt(0) != 0")
	}
	if !math.IsInf(approxSqrt(math.Inf(1)), 1) {
		t.Error("approxSqrt(+inf) not +inf")
	}
	if !math.IsNaN(approxSqrt(-1)) {
		t.Error("approxSqrt(-1) not NaN")
	}
	if !math.IsNaN(approxSqrt(math.NaN())) {
		t.Error("approxSqrt(NaN) not NaN")
	}
}

func TestApproxExpLogFaithful(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 700 {
			return true
		}
		r := approxExp(x)
		exact := math.Exp(x)
		// Faithful: within one ulp of the correctly rounded result.
		return r == exact ||
			r == math.Nextafter(exact, math.Inf(1)) ||
			r == math.Nextafter(exact, math.Inf(-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x float64) bool {
		if math.IsNaN(x) || x <= 0 {
			return true
		}
		r := approxLog(x)
		exact := math.Log(x)
		return r == exact ||
			r == math.Nextafter(exact, math.Inf(1)) ||
			r == math.Nextafter(exact, math.Inf(-1))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestDotMatchesManualLoop(t *testing.T) {
	xs := []float64{1.5, -2.25, 3.125, 0.875, -1.0625}
	ys := []float64{0.5, 1.75, -2.5, 4.0, 8.25}
	e := NewEnv(Strict)
	var want float64
	for i := range xs {
		want += xs[i] * ys[i]
	}
	if got := e.Dot(xs, ys); got != want {
		t.Fatalf("strict Dot = %g, want %g", got, want)
	}
	// Mismatched lengths use the shorter.
	if got := e.Dot(xs[:3], ys); got != xs[0]*ys[0]+xs[1]*ys[1]+xs[2]*ys[2] {
		t.Fatalf("short Dot wrong: %g", got)
	}
}

func TestDotFusedDiffersOnCancellation(t *testing.T) {
	xs := []float64{1 + 0x1p-29, 1 - 0x1p-29}
	ys := []float64{1 - 0x1p-29, -(1 + 0x1p-29)}
	strict := NewEnv(Strict).Dot(xs, ys)
	fused := NewEnv(Semantics{FuseFMA: true, ReassocWidth: 1}).Dot(xs, ys)
	if strict == fused {
		t.Fatalf("expected fused dot to differ: %g", strict)
	}
}

func TestNorm2(t *testing.T) {
	e := NewEnv(Strict)
	if got := e.Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2(3,4) = %g", got)
	}
	if got := e.Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
}

func TestDDExactness(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s := twoSum(a, b)
		if s.hi != a+b {
			return false
		}
		p := twoProd(a, b)
		return p.hi == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// twoSum error term is exact for representable cases.
	s := twoSum(1e16, 1.0)
	if s.hi+s.lo != 1e16+1.0 || s.lo == 0 {
		// 1e16+1 rounds; the lo term must carry the lost 1.0 (or part of it).
		if s.lo != 1.0 && s.lo != -1.0 {
			t.Fatalf("twoSum(1e16,1) = {%g,%g}", s.hi, s.lo)
		}
	}
}

func TestAxpyScale(t *testing.T) {
	e := NewEnv(Strict)
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	e.Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	e.Scale(0.5, y)
	if y[0] != 6 || y[2] != 18 {
		t.Fatalf("Scale wrong: %v", y)
	}
}

func TestInjectionFiresAtStaticSite(t *testing.T) {
	// Function with 3 static ops; inject at op 1 with +eps.
	inj := Injection{OpIndex: 1, Op: InjAdd, Eps: 0.5}
	e := NewInjectedEnv(Strict, 3, inj)
	// op0: Add(1,1) = 2 (no injection)
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op0 = %g, want 2", got)
	}
	// op1: Add(1,1) -> (1+0.5)+1 = 2.5
	if got := e.Add(1, 1); got != 2.5 {
		t.Fatalf("op1 = %g, want 2.5 (injected)", got)
	}
	// op2: clean again
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op2 = %g, want 2", got)
	}
	// op3 wraps to static index 0: clean.
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op3 = %g, want 2", got)
	}
	// op4 wraps to static index 1: injected again (loop model).
	if got := e.Add(1, 1); got != 2.5 {
		t.Fatalf("op4 = %g, want 2.5 (looped injection)", got)
	}
	if e.OpsExecuted() != 5 {
		t.Fatalf("OpsExecuted = %d, want 5", e.OpsExecuted())
	}
}

func TestInjectOpApply(t *testing.T) {
	if InjAdd.Apply(2, 0.5) != 2.5 {
		t.Error("InjAdd wrong")
	}
	if InjSub.Apply(2, 0.5) != 1.5 {
		t.Error("InjSub wrong")
	}
	if InjMul.Apply(2, 0.5) != 3 {
		t.Error("InjMul wrong")
	}
	if InjDiv.Apply(3, 0.5) != 2 {
		t.Error("InjDiv wrong")
	}
	if InjectOp('?').Apply(7, 1) != 7 {
		t.Error("unknown op should be identity")
	}
}

func TestUninjectedEnvDoesNotCount(t *testing.T) {
	e := NewEnv(Strict)
	for i := 0; i < 100; i++ {
		e.Add(1, 1)
	}
	if e.OpsExecuted() != 0 {
		t.Fatalf("un-injected env counted ops: %d", e.OpsExecuted())
	}
	if e.Injected() {
		t.Fatal("Injected() true without injection")
	}
}

func TestNewInjectedEnvClampsStaticOps(t *testing.T) {
	e := NewInjectedEnv(Strict, 0, Injection{OpIndex: 0, Op: InjMul, Eps: 1})
	// staticOps clamped to 1 -> every op injected: Mul(2,3) -> (2*(1+1))*3 = 12.
	if got := e.Mul(2, 3); got != 12 {
		t.Fatalf("clamped injection Mul = %g, want 12", got)
	}
	if !e.Injected() {
		t.Fatal("Injected() false")
	}
}

func TestDeterminismAcrossEnvInstances(t *testing.T) {
	sems := []Semantics{
		Strict,
		{FuseFMA: true, ReassocWidth: 4, UnsafeMath: true},
		{ReassocWidth: 8, ExtendedPrecision: true},
		{ReassocWidth: 1, ApproxMath: true},
	}
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Sin(float64(i) * 0.7)
	}
	for _, sem := range sems {
		r1 := NewEnv(sem).Dot(xs, xs)
		r2 := NewEnv(sem).Dot(xs, xs)
		if r1 != r2 {
			t.Fatalf("semantics %v not deterministic", sem)
		}
	}
}

func TestPowApproxZeroBase(t *testing.T) {
	e := NewEnv(Semantics{ReassocWidth: 1, ApproxMath: true})
	if got := e.Pow(0, 2); got != 0 {
		t.Fatalf("approx Pow(0,2) = %g", got)
	}
	s := NewEnv(Strict)
	if got := s.Pow(2, 10); got != 1024 {
		t.Fatalf("Pow(2,10) = %g", got)
	}
}
