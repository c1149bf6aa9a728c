package fp

import "math"

// flush applies flush-to-zero when the semantics request it.
func (e *Env) flush(x float64) float64 {
	if e.sem.FlushSubnormals && x != 0 && math.Abs(x) < 0x1p-1022 {
		return 0
	}
	return x
}

// Add returns a+b under the environment's semantics.
func (e *Env) Add(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a + b)
}

// Sub returns a-b under the environment's semantics.
func (e *Env) Sub(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a - b)
}

// Mul returns a*b under the environment's semantics.
func (e *Env) Mul(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a * b)
}

// Div returns a/b. Under UnsafeMath it is rewritten to a multiplication by
// the reciprocal, which rounds twice and may differ in the last ulp.
func (e *Env) Div(a, b float64) float64 {
	a = e.step(a)
	if e.sem.UnsafeMath {
		return e.flush(a * (1 / b))
	}
	return e.flush(a / b)
}

// Neg returns -a. Negation is exact and never counted as an FP instruction.
func (e *Env) Neg(a float64) float64 { return -a }

// Abs returns |a|. Exact; not counted.
func (e *Env) Abs(a float64) float64 { return math.Abs(a) }

// MulAdd returns a*b+c. With FMA contraction or extended-precision
// intermediates it rounds once (fused); otherwise it rounds the product and
// the sum separately, exactly like unfused scalar code.
func (e *Env) MulAdd(a, b, c float64) float64 {
	a = e.step(a)
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		return e.flush(math.FMA(a, b, c))
	}
	return e.flush(a*b + c)
}

// MulSub returns a*b-c with the same contraction rules as MulAdd.
func (e *Env) MulSub(a, b, c float64) float64 {
	a = e.step(a)
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		return e.flush(math.FMA(a, b, -c))
	}
	return e.flush(a*b - c)
}

// Sqrt returns the square root. ApproxMath substitutes an SVML-style
// Newton-refined reciprocal-sqrt implementation that is within a couple of
// ulps of the correctly rounded result but not always equal to it.
func (e *Env) Sqrt(a float64) float64 {
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxSqrt(a))
	}
	return e.flush(math.Sqrt(a))
}

// Exp returns e**a; ApproxMath yields a faithfully-rounded (not
// correctly-rounded) result.
func (e *Env) Exp(a float64) float64 {
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxExp(a))
	}
	return e.flush(math.Exp(a))
}

// Log returns the natural logarithm with the same rules as Exp.
func (e *Env) Log(a float64) float64 {
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxLog(a))
	}
	return e.flush(math.Log(a))
}

// Pow returns a**b. Under ApproxMath it is computed as exp(b*log(a)) with
// the approximate kernels (the classic vector-math shortcut).
func (e *Env) Pow(a, b float64) float64 {
	a = e.step(a)
	if e.sem.ApproxMath {
		if a == 0 {
			return 0
		}
		return e.flush(approxExp(b * approxLog(a)))
	}
	return e.flush(math.Pow(a, b))
}

// Sum reduces xs. Width-1 semantics accumulate strictly left to right.
// Wider semantics model vectorized reductions: w independent lane
// accumulators combined at the end, which reassociates the sum. Extended
// precision accumulates each lane in double-double and rounds once.
func (e *Env) Sum(xs []float64) float64 {
	return e.reduce(len(xs), func(i int) float64 { return e.step(xs[i]) })
}

// Dot returns the inner product of xs and ys under the environment's
// reduction and contraction semantics. Each element contributes a multiply
// and an add (two dynamic operations) like the scalar loop it models.
func (e *Env) Dot(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		// Fused path: each lane accumulates with a single rounding per
		// element (or none, for extended precision).
		return e.reduceFMA(n, xs, ys)
	}
	return e.reduce(n, func(i int) float64 {
		return e.Mul(xs[i], ys[i])
	})
}

// Norm2 returns the Euclidean norm sqrt(x·x).
func (e *Env) Norm2(xs []float64) float64 {
	return e.Sqrt(e.Dot(xs, xs))
}

// reduce accumulates n terms produced by f under the reduction semantics.
func (e *Env) reduce(n int, f func(i int) float64) float64 {
	w := int(e.sem.ReassocWidth)
	if w <= 1 {
		if e.sem.ExtendedPrecision {
			acc := dd{}
			for i := 0; i < n; i++ {
				acc = addDD(acc, f(i))
			}
			return e.flush(acc.round())
		}
		var acc float64
		for i := 0; i < n; i++ {
			acc += f(i)
		}
		return e.flush(acc)
	}
	if e.sem.ExtendedPrecision {
		lanes := make([]dd, w)
		for i := 0; i < n; i++ {
			lanes[i%w] = addDD(lanes[i%w], f(i))
		}
		acc := lanes[0]
		for _, l := range lanes[1:] {
			acc = addDDDD(acc, l)
		}
		return e.flush(acc.round())
	}
	lanes := make([]float64, w)
	for i := 0; i < n; i++ {
		lanes[i%w] += f(i)
	}
	var acc float64
	for _, l := range lanes {
		acc += l
	}
	return e.flush(acc)
}

// reduceFMA is the fused dot-product kernel: every element is folded into
// its lane with fma(x, y, lane), one rounding per element; extended
// precision removes even that rounding via double-double lanes.
func (e *Env) reduceFMA(n int, xs, ys []float64) float64 {
	w := int(e.sem.ReassocWidth)
	if w < 1 {
		w = 1
	}
	if e.sem.ExtendedPrecision {
		lanes := make([]dd, w)
		for i := 0; i < n; i++ {
			x := e.step(xs[i])
			e.stepOnly()
			lanes[i%w] = addDDDD(lanes[i%w], twoProd(x, ys[i]))
		}
		acc := lanes[0]
		for _, l := range lanes[1:] {
			acc = addDDDD(acc, l)
		}
		return e.flush(acc.round())
	}
	lanes := make([]float64, w)
	for i := 0; i < n; i++ {
		x := e.step(xs[i])
		e.stepOnly()
		lanes[i%w] = math.FMA(x, ys[i], lanes[i%w])
	}
	var acc float64
	for _, l := range lanes {
		acc += l
	}
	return e.flush(acc)
}

// stepOnly advances the dynamic instruction counter without an operand (used
// when a fused instruction covers what scalar code would do in two).
func (e *Env) stepOnly() {
	if e.inj != nil {
		e.n++
	}
}

// Sum3 adds three values. UnsafeMath reassociates (a+c)+b — the kind of
// reordering -funsafe-math-optimizations performs on short chains.
func (e *Env) Sum3(a, b, c float64) float64 {
	a = e.step(a)
	if e.sem.UnsafeMath {
		return e.flush((a + c) + b)
	}
	return e.flush((a + b) + c)
}

// Axpy computes y[i] += alpha*x[i] in place under contraction semantics.
func (e *Env) Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] = e.MulAdd(alpha, x[i], y[i])
	}
}

// Scale multiplies every element of x by alpha in place.
func (e *Env) Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] = e.Mul(alpha, x[i])
	}
}
