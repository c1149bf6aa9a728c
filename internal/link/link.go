// Package link simulates the build-and-link step that FLiT Bisect drives:
// compiling each translation unit under some compilation, mixing object
// files from the baseline and the variable compilation (File Bisect), and
// overriding individual exported symbols via the strong/weak-symbol trick
// (Symbol Bisect, paper §2.3 and Figure 3).
//
// Linking yields an Executable. Running application code against an
// Executable resolves, per function invocation, which compilation's
// "generated code" executes, and hands the application an fp.Env with that
// compilation's floating-point semantics. Internal (non-exported) symbols
// cannot be overridden individually: like real translation units, they
// travel with whichever copy of their file the caller came from — which is
// exactly what makes the paper's "indirect finds" and -fPIC limitations
// appear.
package link

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/comp"
	"repro/internal/prog"
)

// ErrSegfault is reported when a mixed executable crashes at run time due
// to binary incompatibility between the compilers involved (paper §3.3).
var ErrSegfault = errors.New("link: mixed executable crashed (segmentation fault)")

// ErrDuplicateStrong is reported when two strong definitions of the same
// symbol reach the linker.
var ErrDuplicateStrong = errors.New("link: duplicate strong symbol")

// Plan describes one executable to build.
type Plan struct {
	// Prog is the application being built.
	Prog *prog.Program
	// Baseline is the compilation used for every file not listed in
	// FileComp (the trusted compilation in a bisect search).
	Baseline comp.Compilation
	// FileComp assigns whole files to a different compilation
	// (File Bisect granularity). Keys are file names.
	FileComp map[string]comp.Compilation
	// SymbolComp overrides individual exported symbols (Symbol Bisect
	// granularity). Keys are symbol names. Both copies of the symbol's
	// file are linked; the named symbols take the given compilation and
	// the file's remaining exported symbols keep the baseline, all
	// recompiled with -fPIC as the paper requires.
	SymbolComp map[string]comp.Compilation
	// Driver is the compiler that performs the final link. Empty means
	// the Baseline's compiler. The Intel driver substitutes SVML for libm
	// regardless of compile-time flags.
	Driver string
}

// Key returns the canonical identity string of the executable this plan
// would build — the exact string Executable.Key produces after Link — without
// linking anything: no plan validation, no ABI-hazard scan, no Executable
// allocation. It is what lets a build/run cache be consulted by plan
// identity first and the build happen only on a miss. Plans with unknown
// file or symbol names still serialize (Link would reject them; the key of
// an unbuildable plan simply never matches a built one's). Prog must be
// non-nil.
func (p Plan) Key() string {
	driver := p.Driver
	if driver == "" {
		driver = p.Baseline.Compiler
	}
	return planKey(p.Prog.Name, p.Baseline, driver, p.FileComp, p.SymbolComp)
}

// planKey serializes a build plan with every free-form component (program,
// driver, file and symbol names) comp.KeyEscape'd and compilations rendered
// through the equally escaped comp.Key, so no two distinct plans share a
// key — the property the build/run cache and the shard-artifact merge rest
// on, enforced by FuzzPlanKeyMatchesExecutableKey and the flit key fuzz
// test. It is the single serializer behind both Plan.Key and
// Executable.Key; driver must already be resolved (non-empty).
func planKey(progName string, baseline comp.Compilation, driver string,
	fileComp, symComp map[string]comp.Compilation) string {
	var b strings.Builder
	b.WriteString(comp.KeyEscape(progName))
	b.WriteString("|base=")
	b.WriteString(baseline.Key())
	b.WriteString("|driver=")
	b.WriteString(comp.KeyEscape(driver))
	if len(fileComp) > 0 {
		files := make([]string, 0, len(fileComp))
		for f := range fileComp {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			b.WriteString("|f:")
			b.WriteString(comp.KeyEscape(f))
			b.WriteString("=")
			b.WriteString(fileComp[f].Key())
		}
	}
	if len(symComp) > 0 {
		syms := make([]string, 0, len(symComp))
		for s := range symComp {
			syms = append(syms, s)
		}
		sort.Strings(syms)
		for _, s := range syms {
			b.WriteString("|s:")
			b.WriteString(comp.KeyEscape(s))
			b.WriteString("=")
			b.WriteString(symComp[s].Key())
		}
	}
	return b.String()
}

// Executable is a linked program image.
type Executable struct {
	prog     *prog.Program
	baseline comp.Compilation
	fileComp map[string]comp.Compilation
	symComp  map[string]comp.Compilation
	driver   string
	crash    bool

	keyOnce sync.Once
	key     string

	dispOnce sync.Once
	disp     *dispatch
}

// Link builds an executable from a plan. An error is returned for malformed
// plans (unknown files or symbols, overriding a non-exported symbol);
// ABI-incompatibility does not fail the link — like a real toolchain the
// problem only appears when the binary runs.
func Link(p Plan) (*Executable, error) {
	if p.Prog == nil {
		return nil, errors.New("link: plan has no program")
	}
	for f := range p.FileComp {
		if p.Prog.File(f) == nil {
			return nil, fmt.Errorf("link: plan names unknown file %q", f)
		}
	}
	for s := range p.SymbolComp {
		sym := p.Prog.Symbol(s)
		if sym == nil {
			return nil, fmt.Errorf("link: plan names unknown symbol %q", s)
		}
		if !sym.Exported {
			// A non-exported symbol has no global entry; both strong
			// copies would collide or the override would silently bind to
			// the wrong copy. FLiT never attempts it.
			return nil, fmt.Errorf("link: symbol %q is not exported; %w", s, ErrDuplicateStrong)
		}
	}
	driver := p.Driver
	if driver == "" {
		driver = p.Baseline.Compiler
	}
	ex := &Executable{
		prog:     p.Prog,
		baseline: p.Baseline,
		fileComp: p.FileComp,
		symComp:  p.SymbolComp,
		driver:   driver,
	}
	ex.crash = ex.abiHazard()
	return ex, nil
}

// abiHazard evaluates the deterministic binary-compatibility rules.
func (e *Executable) abiHazard() bool {
	for f, c := range e.fileComp {
		if c.Compiler != e.baseline.Compiler && comp.FileMixHazard(c, e.baseline, f) {
			return true
		}
	}
	seenFile := map[string]bool{}
	for s, c := range e.symComp {
		f := e.prog.Symbol(s).File
		if seenFile[f] {
			continue
		}
		seenFile[f] = true
		if comp.SymbolMixHazard(c, f) {
			return true
		}
	}
	return false
}

// Crashes reports whether running this executable segfaults.
func (e *Executable) Crashes() bool { return e.crash }

// Key returns a canonical identity string for the build plan behind this
// executable: program, baseline compilation, link driver, and every file-
// and symbol-level override in sorted order. Two executables with equal
// keys run identically (the toolchain is deterministic), which is what
// makes the key usable as a build/run-cache address. Program identity is
// the program name; the cache scope assumes distinct programs have
// distinct names, which holds for the singleton app registries.
//
// An Executable is immutable after Link, so the key is computed once and
// memoized — cache lookups repeat it thousands of times per matrix run.
func (e *Executable) Key() string {
	e.keyOnce.Do(func() { e.key = e.buildKey() })
	return e.key
}

// buildKey delegates to the plan serializer: an Executable's key IS its
// plan's key (Plan.Key for the resolved-driver plan), which is what lets
// key-first callers look a plan up among records keyed by built executables.
func (e *Executable) buildKey() string {
	return planKey(e.prog.Name, e.baseline, e.driver, e.fileComp, e.symComp)
}

// Driver returns the linking compiler.
func (e *Executable) Driver() string { return e.driver }

// Program returns the application this executable was built from.
func (e *Executable) Program() *prog.Program { return e.prog }

// dispatch is an executable's symbol resolution compiled to integers: the
// compilations the executable links, interned by ==, and per symbol ID the
// index of the compilation providing it. Equality interning keeps the
// Inject plan's pointer identity, so two indices never name equal
// compilations — the env-sharing rule Machine's env table relies on.
type dispatch struct {
	comps []comp.Compilation
	// symComp[sym.ID] indexes comps. For an exported symbol it is the
	// compilation providing its strong definition; for an internal one, its
	// file's compilation — the binding when no same-file caller is on the
	// stack.
	symComp []int
}

// dispatch returns the executable's compiled resolution table, building it
// on first use.
func (e *Executable) dispatch() *dispatch {
	e.dispOnce.Do(func() { e.disp = e.compileDispatch() })
	return e.disp
}

func (e *Executable) compileDispatch() *dispatch {
	d := &dispatch{symComp: make([]int, e.prog.NumSymbols())}
	intern := func(c comp.Compilation) int {
		for i, have := range d.comps {
			if have == c {
				return i
			}
		}
		d.comps = append(d.comps, c)
		return len(d.comps) - 1
	}
	// A file holding a symbol override is linked as two -fPIC copies; its
	// non-overridden exported symbols bind to the baseline copy.
	split := make([]bool, len(e.prog.Files()))
	for s := range e.symComp {
		split[e.prog.Symbol(s).FileID] = true
	}
	for _, f := range e.prog.Files() {
		fc, ok := e.fileComp[f.Name]
		if !ok {
			fc = e.baseline
		}
		fileCI := intern(fc)
		for _, sym := range f.Symbols {
			ci := fileCI
			if sym.Exported {
				if c, ok := e.symComp[sym.Name]; ok {
					ci = intern(c)
				} else if split[sym.FileID] {
					ci = intern(e.baseline.WithFPIC())
				}
			}
			d.symComp[sym.ID] = ci
		}
	}
	return d
}

// Cost returns the deterministic runtime cost of executing the program from
// the given roots under this executable's symbol resolution. Internal
// symbols are charged at their file's compilation.
func (e *Executable) Cost(roots ...string) float64 {
	d := e.dispatch()
	var total float64
	for _, sym := range sortedSymbols(e.prog.Reachable(roots...)) {
		total += sym.Work * comp.SpeedFactor(d.comps[d.symComp[sym.ID]], sym)
	}
	return total
}

// sortedSymbols gives deterministic iteration over a reachability set.
func sortedSymbols(set map[string]*prog.Symbol) []*prog.Symbol {
	out := make([]*prog.Symbol, 0, len(set))
	for _, s := range set {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Name > out[j].Name; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
