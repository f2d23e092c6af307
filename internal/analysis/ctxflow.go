package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxPackages are the cancellation-critical packages: everything above the
// solver core that can block on a network, a timer or a peer. PR 5 made
// the public API context-first exactly so a caller can bound every wait;
// code in these packages must thread the caller's context instead of
// minting its own or blocking uncancellably.
var ctxPackages = map[string]bool{
	"distsim":      true,
	"controlplane": true,
	"ufc":          true,
}

// Ctxflow enforces context threading in the cancellation-critical packages
// (internal/distsim, internal/controlplane, ufc), outside main packages
// and tests:
//
//   - calls to context.Background() / context.TODO() — a protocol or
//     serving layer that mints its own root context silently detaches
//     itself from the caller's deadline and cancellation; the entry
//     points (main, tests) own the root.
//     A deliberate escape hatch carries //ufc:ctx <why>;
//   - functions that accept a context.Context, never use it, yet call
//     context-aware callees — the dropped-ctx wrapper shape, where
//     cancellation dies at an API boundary that looks context-first;
//   - calls from a context-carrying function to a callee that blocks
//     (time.Sleep, net.Dial, sync.WaitGroup.Wait — directly or, via the
//     blocksFact exported when the callee's package was analyzed,
//     transitively) without accepting a context: the wait outlives the
//     caller's cancellation.
//
// Blocking facts are computed for every analyzed package so the check
// sees through cross-package helpers; diagnostics fire only inside the
// watched packages.
var Ctxflow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "flag context.Background/TODO and uncancellable blocking calls in the serving and protocol packages",
	FactTypes: []Fact{(*blocksFact)(nil)},
	Run:       runCtxflow,
}

// blocksFact marks a function that can block without consulting any
// context: it directly performs a blocking operation, or calls a
// context-free function that does.
type blocksFact struct {
	What string `json:"what"` // the underlying blocking operation
}

func (*blocksFact) AFact() {}

func runCtxflow(pass *Pass) error {
	blocking := pass.exportBlockingFacts()
	if !ctxPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pass.checkCtxFunc(fn, blocking)
		}
	}
	return nil
}

// exportBlockingFacts computes the package's transitive blocking set and
// exports a blocksFact for every context-free member, returning the local
// set for same-package checks. Functions that accept a context are never
// exported: their waits are (presumed) bounded by it, and flagging them
// at call sites would punish the fix.
func (p *Pass) exportBlockingFacts() map[*types.Func]*blocksFact {
	cg := p.Callgraph()
	what := make(map[*types.Func]*blocksFact)
	seed := func(fn *types.Func, decl *ast.FuncDecl) bool {
		if p.IsTestFile(decl.Pos()) || funcTakesContext(fn) {
			return false
		}
		found := ""
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found != "" {
				return found == ""
			}
			if op := p.directBlockingOp(call); op != "" {
				found = op
			}
			return found == ""
		})
		if found != "" {
			what[fn] = &blocksFact{What: found}
			return true
		}
		return false
	}
	inSet := func(callee *types.Func) bool {
		if funcTakesContext(callee) {
			return false
		}
		var f blocksFact
		return p.ImportObjectFact(callee, &f)
	}
	members := cg.Fixpoint(seed, inSet)
	for fn := range members {
		if funcTakesContext(fn) {
			continue
		}
		f := what[fn]
		if f == nil {
			// Transitive member: name the first blocking callee found.
			for _, callee := range cg.Callees(fn) {
				if w := what[callee]; w != nil && members[callee] {
					f = &blocksFact{What: "calls " + callee.Name() + " → " + w.What}
					break
				}
				var imported blocksFact
				if !funcTakesContext(callee) && p.ImportObjectFact(callee, &imported) {
					f = &blocksFact{What: "calls " + callee.Name() + " → " + imported.What}
					break
				}
			}
			if f == nil {
				f = &blocksFact{What: "blocks transitively"}
			}
			what[fn] = f
		}
		p.ExportObjectFact(fn, f)
	}
	return what
}

// directBlockingOp reports the blocking operation a call performs with no
// context to bound it, or "".
func (p *Pass) directBlockingOp(call *ast.CallExpr) string {
	f := p.funcOf(call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Sleep" && sig != nil && sig.Recv() == nil {
			return "time.Sleep"
		}
	case "net":
		if strings.HasPrefix(f.Name(), "Dial") {
			return "net." + f.Name()
		}
	case "sync":
		if f.Name() == "Wait" && sig != nil && sig.Recv() != nil && namedTypeIs(sig.Recv().Type(), "sync", "WaitGroup") {
			return "sync.WaitGroup.Wait"
		}
	}
	return ""
}

// checkCtxFunc applies the three ctxflow checks to one declaration.
func (p *Pass) checkCtxFunc(fn *ast.FuncDecl, blocking map[*types.Func]*blocksFact) {
	obj, _ := p.TypesInfo.Defs[fn.Name].(*types.Func)
	ctxParam := contextParam(p, fn)
	ctxUsed := false
	callsCtxAware := false

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ctxParam != nil && p.TypesInfo.Uses[id] == ctxParam {
			ctxUsed = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.funcOf(call)

		// 1. Minting a root context mid-stack.
		if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "context" &&
			(callee.Name() == "Background" || callee.Name() == "TODO") {
			if !p.Suppressed(call, "ctx") {
				p.Reportf(call.Pos(), "context.%s() detaches this call tree from the caller's cancellation and deadline; thread the caller's ctx through, or justify the root with //ufc:ctx", callee.Name())
			}
		}

		// 3. Context-carrying caller invoking an uncancellable blocker.
		if ctxParam != nil && callee != nil && callee != obj && !funcTakesContext(callee) {
			var why string
			if op := p.directBlockingOp(call); op != "" {
				why = op
			} else if f := blocking[callee]; f != nil {
				why = f.What
			} else {
				var imported blocksFact
				if p.ImportObjectFact(callee, &imported) {
					why = imported.What
				}
			}
			if why != "" && !p.Suppressed(call, "ctx") {
				p.Reportf(call.Pos(), "%s blocks (%s) without accepting this function's ctx; the wait outlives cancellation — plumb the context into the callee or justify with //ufc:ctx", callee.Name(), why)
			}
		}
		return true
	})

	// 2. Dropped-ctx wrapper.
	if ctxParam != nil && ctxParam.Name() != "_" && !ctxUsed {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || callsCtxAware {
				return !callsCtxAware
			}
			if callee := p.funcOf(call); callee != nil && callee != obj && funcTakesContext(callee) {
				callsCtxAware = true
			}
			return !callsCtxAware
		})
		if callsCtxAware && !p.Suppressed(fn, "ctx") {
			p.Reportf(fn.Name.Pos(), "%s accepts a context.Context it never uses while calling context-aware functions; pass %s through (or name it _ if the signature is contractual)", fn.Name.Name, ctxParam.Name())
		}
	}
}

// contextParam returns the function's first context.Context parameter
// object, or nil.
func contextParam(p *Pass, fn *ast.FuncDecl) *types.Var {
	obj, ok := p.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if prm := sig.Params().At(i); isContextType(prm.Type()) {
			return prm
		}
	}
	return nil
}

// funcTakesContext reports whether any parameter of f is a context.Context.
func funcTakesContext(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return namedTypeIs(t, "context", "Context") }

// namedTypeIs reports whether t (possibly behind a pointer) is the named
// type pkgpath.name.
func namedTypeIs(t types.Type, pkgpath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath
}
