package link

import (
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
)

// fnCase is one steady-state dispatch path of Machine.Fn: entering sym on
// m, inside caller's frame when caller is set.
type fnCase struct {
	name, sym, caller string
	m                 *Machine
}

// fnCases covers an exported symbol, an internal symbol bound through the
// stack (helper under Dot's frame), and the target of an injection plan.
func fnCases(tb testing.TB) []fnCase {
	tb.Helper()
	p := testProgram()
	machine := func(ex *Executable, err error) *Machine {
		if err != nil {
			tb.Fatal(err)
		}
		m, err := ex.NewMachine()
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	injected := baseC.WithInjection("Dot", fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.125})
	return []fnCase{
		{"exported", "Scale", "", machine(SymbolMixBuild(p, baseC, varC, []string{"Dot"}))},
		{"internal", "helper", "Dot", machine(SymbolMixBuild(p, baseC, varC, []string{"Dot"}))},
		{"injected", "Dot", "", machine(FullBuild(p, injected))},
	}
}

// enterCaller pushes the case's caller frame, if any, and returns its done.
func (tc fnCase) enterCaller() func() {
	if tc.caller == "" {
		return func() {}
	}
	_, done := tc.m.Fn(tc.caller)
	return done
}

// TestMachineFnDoesNotAllocate: once a symbol's env exists, entering and
// leaving it allocates nothing — Fn runs once per simulated call.
func TestMachineFnDoesNotAllocate(t *testing.T) {
	for _, tc := range fnCases(t) {
		leave := tc.enterCaller()
		allocs := testing.AllocsPerRun(100, func() {
			_, done := tc.m.Fn(tc.sym)
			done()
		})
		leave()
		if allocs != 0 {
			t.Errorf("%s: Fn(%q) allocates %v times per call", tc.name, tc.sym, allocs)
		}
	}
}

// BenchmarkMachineFn times one steady-state Fn/done pair per dispatch path.
func BenchmarkMachineFn(b *testing.B) {
	for _, tc := range fnCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			defer tc.enterCaller()()
			b.ReportAllocs()
			for b.Loop() {
				_, done := tc.m.Fn(tc.sym)
				done()
			}
		})
	}
}

// TestDispatchConcurrentFirstUse: the dispatch table is built lazily by
// whichever of NewMachine and Cost comes first; goroutines sharing a fresh
// executable must all see one table and agree on every binding.
func TestDispatchConcurrentFirstUse(t *testing.T) {
	ex, err := SymbolMixBuild(testProgram(), baseC, varC, []string{"Dot"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]comp.Compilation{
		"Dot": varC.WithFPIC(), "Scale": baseC.WithFPIC(), "helper": baseC, "Main": baseC,
	}
	var wg sync.WaitGroup
	costs := make([]float64, 8)
	for g := range costs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				costs[g] = ex.Cost("Main")
			}
			m, err := ex.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			for sym, c := range want {
				_, done := m.Fn(sym)
				if got := m.Comp(); got != c {
					t.Errorf("goroutine %d: %s bound to %s, want %s", g, sym, got, c)
				}
				done()
			}
			costs[g] = ex.Cost("Main")
		}()
	}
	wg.Wait()
	for g, c := range costs {
		if c != costs[0] {
			t.Errorf("goroutine %d: Cost = %v, goroutine 0: %v", g, c, costs[0])
		}
	}
}
