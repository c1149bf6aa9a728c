package link_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/link"
	"repro/internal/prog"
)

// refComp is the by-name resolver the compiled dispatch table replaced,
// kept as the reference: an override wins; an exported symbol of a file
// holding any override binds to the baseline -fPIC copy; everything else
// takes its file's compilation.
func refComp(p link.Plan, sym *prog.Symbol) comp.Compilation {
	file := p.Baseline
	if c, ok := p.FileComp[sym.File]; ok {
		file = c
	}
	if !sym.Exported {
		return file
	}
	if c, ok := p.SymbolComp[sym.Name]; ok {
		return c
	}
	for s := range p.SymbolComp {
		if p.Prog.Symbol(s).File == sym.File {
			return p.Baseline.WithFPIC()
		}
	}
	return file
}

// refCost charges the reachable closure in by-name order under refComp.
func refCost(p link.Plan, roots ...string) float64 {
	reach := p.Prog.Reachable(roots...)
	names := make([]string, 0, len(reach))
	for n := range reach {
		names = append(names, n)
	}
	sort.Strings(names)
	var total float64
	for _, n := range names {
		sym := reach[n]
		total += sym.Work * comp.SpeedFactor(refComp(p, sym), sym)
	}
	return total
}

// randomPlan draws one of the plan shapes the bisect drivers build — a
// file mix, a symbol mix over one or two files, or the -fPIC probe — with
// a variable compilation from the matrix, sometimes carrying an injection.
func randomPlan(rng *rand.Rand, p *prog.Program) link.Plan {
	matrix := comp.Matrix()
	variable := matrix[rng.Intn(len(matrix))]
	syms := p.Symbols()
	if rng.Intn(4) == 0 {
		target := syms[rng.Intn(len(syms))].Name
		variable = variable.WithInjection(target, fp.Injection{OpIndex: 0, Op: fp.InjAdd, Eps: 0.5})
	}
	base := comp.Baseline()
	files := p.FileNames()
	switch rng.Intn(3) {
	case 0:
		var pick []string
		for _, f := range files {
			if rng.Intn(2) == 0 {
				pick = append(pick, f)
			}
		}
		return link.FileMixPlan(p, base, variable, pick)
	case 1:
		var pick []string
		for k := 0; k < 1+rng.Intn(2); k++ {
			for _, s := range p.ExportedSymbols(files[rng.Intn(len(files))]) {
				if rng.Intn(2) == 0 {
					pick = append(pick, s.Name)
				}
			}
		}
		return link.SymbolMixPlan(p, base, variable, pick)
	default:
		return link.FPICProbePlan(p, base, variable, files[rng.Intn(len(files))])
	}
}

var appPrograms = []func() *prog.Program{mfem.Program, laghos.Program, lulesh.Program}

// TestCompiledDispatchMatchesReference: over seeded-random file mixes,
// symbol mixes and -fPIC probes of the three applications, every symbol's
// compiled binding equals the reference resolver's, a top-level Fn runs
// under it, and Cost is bit-identical to the by-name reference summation.
func TestCompiledDispatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, program := range appPrograms {
		p := program()
		syms := p.Symbols()
		for i := 0; i < 100; i++ {
			plan := randomPlan(rng, p)
			ex, err := link.Link(plan)
			if err != nil {
				t.Fatalf("%s plan %d: %v", p.Name, i, err)
			}
			for _, sym := range syms {
				if got, want := link.BoundComp(ex, sym.Name), refComp(plan, sym); got != want {
					t.Fatalf("%s plan %q: %s bound to %s, want %s", p.Name, plan.Key(), sym.Name, got, want)
				}
			}
			roots := []string{syms[rng.Intn(len(syms))].Name, syms[rng.Intn(len(syms))].Name}
			if got, want := ex.Cost(roots...), refCost(plan, roots...); got != want {
				t.Fatalf("%s plan %q: Cost(%v) = %v, want %v", p.Name, plan.Key(), roots, got, want)
			}
			if ex.Crashes() {
				continue
			}
			m, err := ex.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			for _, sym := range syms {
				_, done := m.Fn(sym.Name)
				if got, want := m.Comp(), refComp(plan, sym); got != want {
					t.Fatalf("%s plan %q: Fn(%s) ran under %s, want %s", p.Name, plan.Key(), sym.Name, got, want)
				}
				done()
			}
			checkNearestCaller(t, plan, m)
		}
	}
}

// checkNearestCaller: an internal symbol binds to the copy of the nearest
// same-file frame. For every ordered pair of exported symbols (a, b) of a
// file, a → b → internal runs the internal symbol under b's binding, not
// a's — the two differ when a and b come from different -fPIC copies.
func checkNearestCaller(t *testing.T, plan link.Plan, m *link.Machine) {
	t.Helper()
	for _, f := range plan.Prog.Files() {
		for _, a := range f.Symbols {
			for _, b := range f.Symbols {
				if !a.Exported || !b.Exported {
					continue
				}
				_, doneA := m.Fn(a.Name)
				_, doneB := m.Fn(b.Name)
				for _, h := range f.Symbols {
					if h.Exported {
						continue
					}
					_, doneH := m.Fn(h.Name)
					if got, want := m.Comp(), refComp(plan, b); got != want {
						t.Fatalf("%s plan %q: %s under %s under %s ran under %s, want %s",
							plan.Prog.Name, plan.Key(), h.Name, b.Name, a.Name, got, want)
					}
					doneH()
				}
				doneB()
				doneA()
			}
		}
	}
}

// envKey is the sharing rule a Machine's env table implements: one env per
// (symbol, providing compilation), compilations compared by ==.
type envKey struct {
	sym string
	c   comp.Compilation
}

// TestMachineEnvIdentity pins env sharing over the same random plans: an
// env is shared exactly by invocations with equal (symbol, compilation) —
// so the two -fPIC copies of a symbol-mixed file give an internal symbol
// two distinct envs — and an injected env's dynamic counter accumulates
// across calls.
func TestMachineEnvIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	splitCopies := 0
	for _, program := range appPrograms {
		p := program()
		for i := 0; i < 100; i++ {
			plan := randomPlan(rng, p)
			ex, err := link.Link(plan)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ex.NewMachine()
			if err != nil {
				continue // ABI-hazardous mix
			}
			envOf := map[envKey]*fp.Env{}
			keyOf := map[*fp.Env]envKey{}
			enter := func(name string) func() {
				env, done := m.Fn(name)
				k := envKey{name, m.Comp()}
				if prev, ok := envOf[k]; ok && prev != env {
					t.Fatalf("%s plan %q: %s under %s got a second env", p.Name, plan.Key(), name, k.c)
				}
				if prev, ok := keyOf[env]; ok && prev != k {
					t.Fatalf("%s plan %q: %s under %s shares the env of %s under %s",
						p.Name, plan.Key(), name, k.c, prev.sym, prev.c)
				}
				envOf[k], keyOf[env] = env, k
				return done
			}
			// Every internal symbol under every exported caller of its
			// file, twice: once per copy of a symbol-mixed file.
			for pass := 0; pass < 2; pass++ {
				for _, f := range p.Files() {
					copies := map[comp.Compilation]bool{}
					for _, caller := range f.Symbols {
						if !caller.Exported {
							continue
						}
						doneCaller := enter(caller.Name)
						for _, callee := range f.Symbols {
							if !callee.Exported {
								copies[m.Comp()] = true
								enter(callee.Name)()
							}
						}
						doneCaller()
					}
					if pass == 0 && len(copies) > 1 {
						splitCopies++
					}
				}
			}
		}
		// An injected env keeps one dynamic counter across invocations.
		target := p.Symbols()[rng.Intn(p.NumSymbols())]
		injected := comp.Baseline().WithInjection(target.Name, fp.Injection{OpIndex: 1, Op: fp.InjMul, Eps: 0.25})
		ex, err := link.FullBuild(p, injected)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ex.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 3; call++ {
			env, done := m.Fn(target.Name)
			if !env.Injected() {
				t.Fatalf("%s: injection target %s got a clean env", p.Name, target.Name)
			}
			env.Add(1, 2)
			env.Mul(3, 4)
			done()
			if got := env.OpsExecuted(); got != 2*call {
				t.Fatalf("%s: after call %d, %s executed %d ops, want %d", p.Name, call, target.Name, got, 2*call)
			}
		}
	}
	if splitCopies == 0 {
		t.Fatal("no plan linked two copies of a file with internal symbols; the split-copy check is vacuous")
	}
}
