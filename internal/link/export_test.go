package link

import "repro/internal/comp"

// BoundComp returns the compilation the compiled dispatch table gives a
// symbol (for an internal symbol: its binding with no same-file caller on
// the stack). Exported for the external dispatch tests.
func BoundComp(ex *Executable, sym string) comp.Compilation {
	d := ex.dispatch()
	return d.comps[d.symComp[ex.prog.MustSymbol(sym).ID]]
}
