package link

import (
	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// Machine executes application code against one linked executable. It
// tracks the simulated call stack so that internal (non-exported) symbols
// resolve to the copy of their translation unit their caller came from —
// the behavior of real static functions when Symbol Bisect links two copies
// of an object file.
//
// Application functions bracket their bodies with:
//
//	env, done := m.Fn("SymbolName")
//	defer done()
//
// and perform all floating-point arithmetic through env. A Machine is not
// safe for concurrent use; create one Machine per goroutine.
type Machine struct {
	ex    *Executable
	d     *dispatch
	stack []frame
	// envs holds one fp.Env per (symbol, providing compilation) for the
	// lifetime of the run, at index sym.ID*len(d.comps)+ci, so a function's
	// dynamic instruction counter accumulates across invocations — an
	// injection at static instruction k of a function called many times
	// fires on every pass through its body, exactly like a real
	// static-instruction perturbation. The compilations are interned by ==
	// (Inject pointer identity included), which is exactly the sharing the
	// dynamic instruction counters need.
	envs []*fp.Env
	// done pops the innermost frame; bound once so Fn does not allocate.
	done func()
}

// frame is one simulated activation: the running symbol's file and the
// index of the compilation whose copy of that file it runs in.
type frame struct {
	file, ci int
}

// NewMachine returns a machine for one run of the executable. It returns
// ErrSegfault if the mixed binary is ABI-incompatible and cannot run.
func (e *Executable) NewMachine() (*Machine, error) {
	if e.crash {
		return nil, ErrSegfault
	}
	d := e.dispatch()
	m := &Machine{ex: e, d: d, envs: make([]*fp.Env, e.prog.NumSymbols()*len(d.comps))}
	m.done = m.pop
	return m, nil
}

// Fn enters the named function: it resolves which compilation provides this
// invocation, builds the fp.Env for that compilation's semantics (including
// link-driver effects and any injection plan), and returns it together with
// a function that must be deferred to leave the frame.
func (m *Machine) Fn(symbol string) (*fp.Env, func()) {
	sym := m.ex.prog.MustSymbol(symbol)
	ci := m.d.symComp[sym.ID]
	if !sym.Exported {
		// Internal symbol: bound to the copy of its file that the nearest
		// same-file caller on the stack came from. With no same-file
		// caller (e.g. a test harness calling an internal function
		// directly) it keeps the file-level compilation.
		for i := len(m.stack) - 1; i >= 0; i-- {
			if m.stack[i].file == sym.FileID {
				ci = m.stack[i].ci
				break
			}
		}
	}
	m.stack = append(m.stack, frame{file: sym.FileID, ci: ci})
	slot := sym.ID*len(m.d.comps) + ci
	env := m.envs[slot]
	if env == nil {
		env = m.newEnv(sym, m.d.comps[ci])
		m.envs[slot] = env
	}
	return env, m.done
}

func (m *Machine) pop() {
	m.stack = m.stack[:len(m.stack)-1]
}

// newEnv builds the fp.Env for one symbol under one compilation.
func (m *Machine) newEnv(sym *prog.Symbol, c comp.Compilation) *fp.Env {
	sem := comp.ApplyLinkStep(m.ex.driver, sym, comp.Semantics(c, sym))
	if c.Inject != nil && c.Inject.Symbol == sym.Name {
		return fp.NewInjectedEnv(sem, sym.FPOps, c.Inject.Inj)
	}
	return fp.NewEnv(sem)
}

// Comp returns the compilation providing the current (innermost) frame.
// Application code uses it to model compilation-dependent behavior that is
// not floating-point semantics, such as undefined-behavior miscompilation
// (the Laghos xsw macro). Calling Comp outside any frame returns the
// baseline compilation.
func (m *Machine) Comp() comp.Compilation {
	if len(m.stack) == 0 {
		return m.ex.baseline
	}
	return m.d.comps[m.stack[len(m.stack)-1].ci]
}

// Depth returns the current simulated call-stack depth (for tests).
func (m *Machine) Depth() int { return len(m.stack) }

// Executable returns the executable this machine runs.
func (m *Machine) Executable() *Executable { return m.ex }
