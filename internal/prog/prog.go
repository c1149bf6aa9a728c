// Package prog describes the static structure of a simulated C++
// application: its source files, the symbols (functions) each file defines,
// and per-symbol metadata the compilation model needs — whether the symbol
// is globally exported (and therefore overridable at link time), what
// floating-point patterns its body contains (which decides which compiler
// transformations can change its results), its relative work (for the
// deterministic cost model), its static FP instruction count (for the
// injection study), and its callees (for call-graph closure and indirect
// blame attribution).
package prog

import (
	"fmt"
	"sort"
)

// Symbol is one function of the simulated application.
type Symbol struct {
	// Name is the (unique within the program) symbol name.
	Name string
	// File is the source file that defines this symbol.
	File string
	// Exported marks globally exported (strong, non-static) symbols.
	// Symbol-level bisection can only replace exported symbols; internal
	// symbols travel with whichever version of their callers is linked in.
	Exported bool
	// Work is the relative computational weight used by the cost model.
	Work float64
	// FPOps is the number of static floating-point instructions in the
	// body, used to enumerate injection sites.
	FPOps int
	// Features describes the FP patterns present in the body.
	Features Features
	// Callees lists symbols this function calls (same program).
	Callees []string
	// SLOC is the body's source-lines-of-code for Table 3 style statistics.
	SLOC int
	// ID is the symbol's dense index within its program, assigned by
	// AddFile in definition order (0 .. NumSymbols-1). FileID is the
	// definition-order index of its file. Both let the linker resolve
	// symbols once into integer-indexed tables instead of by name.
	ID, FileID int
}

// Features flags which floating-point patterns a function body contains.
// A compiler transformation can only change a function's results if the body
// contains a pattern the transformation rewrites.
type Features struct {
	MulAdd    bool // a*b+c chains (FMA contraction applies)
	Reduction bool // long sums / dot products (vector reassociation applies)
	Division  bool // divisions (reciprocal rewrite applies)
	SqrtLibm  bool // sqrt/exp/log/pow calls (library substitution applies)
	ShortExpr bool // short reassociable chains (unsafe-math applies)
	Branch    bool // result-dependent branching (amplifies variability)
	// Hot marks simple, hot loop nests that every optimizer reliably
	// transforms when licensed (the AddMult_a_AAt kernel of Finding 2).
	// Non-hot functions are transformed at the compiler's (low) base rate:
	// most code does not change shape under a new flag.
	Hot bool
}

// File is a translation unit of the simulated application.
type File struct {
	Name    string
	Symbols []*Symbol
}

// Program is the full static description of one simulated application.
type Program struct {
	Name  string
	files []*File
	syms  map[string]*Symbol
}

// New creates an empty program.
func New(name string) *Program {
	return &Program{Name: name, syms: make(map[string]*Symbol)}
}

// AddFile registers a translation unit and its symbols. It panics on a
// duplicate file or symbol name — program definitions are static tables
// written by hand, so a duplicate is a programming error.
func (p *Program) AddFile(name string, symbols ...*Symbol) *File {
	for _, f := range p.files {
		if f.Name == name {
			panic(fmt.Sprintf("prog: duplicate file %q in program %q", name, p.Name))
		}
	}
	f := &File{Name: name}
	for _, s := range symbols {
		if s.Name == "" {
			panic(fmt.Sprintf("prog: empty symbol name in file %q", name))
		}
		if _, dup := p.syms[s.Name]; dup {
			panic(fmt.Sprintf("prog: duplicate symbol %q", s.Name))
		}
		s.File = name
		s.ID, s.FileID = len(p.syms), len(p.files)
		if s.Work <= 0 {
			s.Work = 1
		}
		p.syms[s.Name] = s
		f.Symbols = append(f.Symbols, s)
	}
	p.files = append(p.files, f)
	return f
}

// Files returns the translation units in definition order.
func (p *Program) Files() []*File { return p.files }

// FileNames returns the file names in definition order.
func (p *Program) FileNames() []string {
	out := make([]string, len(p.files))
	for i, f := range p.files {
		out[i] = f.Name
	}
	return out
}

// File returns the named translation unit, or nil.
func (p *Program) File(name string) *File {
	for _, f := range p.files {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumSymbols returns the number of symbols; Symbol.ID ranges over
// [0, NumSymbols).
func (p *Program) NumSymbols() int { return len(p.syms) }

// Symbol returns the named symbol, or nil.
func (p *Program) Symbol(name string) *Symbol { return p.syms[name] }

// MustSymbol returns the named symbol or panics. Application code uses it
// when entering one of its own registered functions, where a missing entry
// is a table bug.
func (p *Program) MustSymbol(name string) *Symbol {
	s := p.syms[name]
	if s == nil {
		panic(fmt.Sprintf("prog: unknown symbol %q in program %q", name, p.Name))
	}
	return s
}

// Symbols returns all symbols sorted by name.
func (p *Program) Symbols() []*Symbol {
	out := make([]*Symbol, 0, len(p.syms))
	for _, s := range p.syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExportedSymbols returns the exported symbols of one file, sorted by name.
// These are the candidates for symbol-level bisection.
func (p *Program) ExportedSymbols(file string) []*Symbol {
	f := p.File(file)
	if f == nil {
		return nil
	}
	var out []*Symbol
	for _, s := range f.Symbols {
		if s.Exported {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reachable returns the set of symbols reachable from the given roots
// through the static call graph (including the roots themselves). Unknown
// callee names are ignored: the simulated programs may call into the "C++
// standard library", which is outside the search space, just as in FLiT.
func (p *Program) Reachable(roots ...string) map[string]*Symbol {
	seen := make(map[string]*Symbol)
	var visit func(name string)
	visit = func(name string) {
		s := p.syms[name]
		if s == nil || seen[name] != nil {
			return
		}
		seen[name] = s
		for _, c := range s.Callees {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// ExportedAncestor returns the nearest exported symbol that (transitively)
// calls the named symbol, preferring the shortest call-chain. If the symbol
// itself is exported it is returned. Returns "" if none exists. This
// mirrors the paper's "indirect find": an injection in an inlined or
// internal function is attributed to the closest visible caller.
func (p *Program) ExportedAncestor(name string) string {
	target := p.syms[name]
	if target == nil {
		return ""
	}
	if target.Exported {
		return name
	}
	// Reverse edges, then BFS from the target through callers.
	callers := make(map[string][]string)
	for _, s := range p.syms {
		for _, c := range s.Callees {
			callers[c] = append(callers[c], s.Name)
		}
	}
	for _, list := range callers {
		sort.Strings(list)
	}
	visited := map[string]bool{name: true}
	frontier := []string{name}
	for len(frontier) > 0 {
		var next []string
		for _, cur := range frontier {
			for _, caller := range callers[cur] {
				if visited[caller] {
					continue
				}
				visited[caller] = true
				if p.syms[caller].Exported {
					return caller
				}
				next = append(next, caller)
			}
		}
		frontier = next
	}
	return ""
}

// Stats summarizes a program in the shape of the paper's Table 3.
type Stats struct {
	SourceFiles     int
	TotalFunctions  int
	AvgFuncsPerFile float64
	SLOC            int
	ExportedFuncs   int
	TotalFPOps      int
}

// Stats computes the program census.
func (p *Program) Stats() Stats {
	st := Stats{SourceFiles: len(p.files)}
	for _, f := range p.files {
		for _, s := range f.Symbols {
			st.TotalFunctions++
			st.SLOC += s.SLOC
			st.TotalFPOps += s.FPOps
			if s.Exported {
				st.ExportedFuncs++
			}
		}
	}
	if st.SourceFiles > 0 {
		st.AvgFuncsPerFile = float64(st.TotalFunctions) / float64(st.SourceFiles)
	}
	return st
}

// Validate checks cross-references: every callee that looks like a program
// symbol must resolve, every symbol must belong to a file, and FPOps/Work
// must be non-negative. It returns the first problem found.
func (p *Program) Validate() error {
	for _, f := range p.files {
		for _, s := range f.Symbols {
			if s.File != f.Name {
				return fmt.Errorf("prog %s: symbol %s has file %q, expected %q", p.Name, s.Name, s.File, f.Name)
			}
			if s.Work < 0 {
				return fmt.Errorf("prog %s: symbol %s has negative work", p.Name, s.Name)
			}
			if s.FPOps < 0 {
				return fmt.Errorf("prog %s: symbol %s has negative FPOps", p.Name, s.Name)
			}
			// An internal (static) function is invisible outside its
			// translation unit: callers must live in the same file.
			for _, cn := range s.Callees {
				c := p.syms[cn]
				if c != nil && !c.Exported && c.File != s.File {
					return fmt.Errorf("prog %s: %s (in %s) calls internal symbol %s of %s",
						p.Name, s.Name, s.File, cn, c.File)
				}
			}
		}
	}
	return nil
}
