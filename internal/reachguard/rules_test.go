package reachguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// rules states the design facts the type checker holds the non-test code of
// both modules to (DESIGN.md §9 "What ships is reached"). The allowlist's
// safety entries hold one more: no shipped path reaches an Audit.
var rules = []rule{
	{name: "repair-knows-no-worlds", reason: "the planner and its machine know nothing of generated worlds: the bridge from a dve.World to planner events is the simulator's",
		in: []string{"dvecap/internal/repair"}, imports: "dvecap/internal/dve/...", deps: true},
	{name: "examples-use-the-public-api", reason: "an example shows what a user of the module can write, and a user cannot import internal/",
		in: []string{"dvecap/examples/..."}, imports: "dvecap/internal/..."},
	{name: "one-durability-engine", reason: "repair.Machine owns the journal; the bench module reads journals offline",
		in: []string{"dvecap/..."}, except: []string{"dvecap/internal/repair", "dvecap/bench/..."}, imports: "dvecap/internal/wal"},
	{name: "one-churn-path", reason: "outside internal/repair and the bench module, shipped code changes a planner only by handing a repair.Machine a resolved event",
		in: []string{"dvecap/..."}, except: []string{"dvecap/internal/repair/...", "dvecap/bench/..."},
		uses: []string{
			"dvecap/internal/repair.Planner.Join", "dvecap/internal/repair.Planner.Leave", "dvecap/internal/repair.Planner.Move",
			"dvecap/internal/repair.Planner.DrainServer", "dvecap/internal/repair.Planner.UncordonServer", "dvecap/internal/repair.Planner.FullSolve",
			"dvecap/internal/repair.Planner.AddAdjacency", "dvecap/internal/repair.Planner.SetAdjacency",
			"SetRT", "RefreshZoneRT", "UpdateServerDelayColumn",
		}},
	{name: "one-admission-rule", reason: "repair.Machine.Commit's admission rule admits every event for both front ends, which only resolve input; the director's Config.Validate checks deployment settings",
		in: []string{"dvecap/clustersession.go", "dvecap/internal/director"}, except: []string{"dvecap/internal/director.Config.Validate"},
		uses: []string{"dvecap/internal/repair.FinitePos", "dvecap/internal/repair.FiniteNonNeg", "dvecap/internal/repair.CheckClientID"}},
	{name: "one-delay-owner", reason: "core.Problem's methods alone ask whether a problem holds raw CS rows or a store",
		in: []string{"dvecap/internal/core/...", "dvecap/internal/repair/..."}, except: []string{"dvecap/internal/core/problem.go"},
		uses: []string{"dvecap/internal/core.Problem.Delays"}, nilCompared: true},
	{name: "one-route-table", reason: "the director's ServeMux patterns are its one route table: no handler splits a request path by hand",
		in: []string{"dvecap/internal/director"}, uses: []string{"net/http.Request.URL"}, argOf: []string{"strings.Cut", "strings.TrimPrefix"}},
}

// rule holds the non-test code in its scope to one fact of the design. An
// import rule forbids an import; a use rule forbids using some objects, or
// using them in one context: as an operand of a nil comparison, or inside
// an argument of a call to a named function.
type rule struct {
	name, reason string
	// The scope: packages ("p/..." is p and the packages below it), files
	// ("p/f.go") and, in except, declarations ("p.T.M").
	in, except []string
	imports    string   // import rule: the package ("p/..." too) no file in scope imports
	deps       bool     // ... directly or through other packages
	uses       []string // use rule: objects ("p.Name", "p.T.Member"), or a bare name: every function and method of that name the modules declare
	// A use rule's context, if any.
	nilCompared bool     // an operand of == or != nil, or a variable := defined from the object that is one
	argOf       []string // inside an argument of a call to one of these functions
}

// violation is one place where the code in a rule's scope breaks it.
type violation struct {
	rule *rule
	pos  token.Position
	what string
}

func (v violation) String() string {
	return fmt.Sprintf("%s: %s breaks rule %s (%s)", v.pos, v.what, v.rule.name, v.rule.reason)
}

// broken checks prog against rules and returns, in position order, the
// violations and the stale rule entries: an object that does not exist and
// an in entry that matches no file.
func broken(prog *program, rules []rule) (bad []violation, stale []string) {
	objs := make([]map[types.Object]string, len(rules)) // the objects of each use rule, with their names
	for i := range rules {
		r := &rules[i]
		objs[i] = map[types.Object]string{}
		for _, key := range r.uses {
			found := prog.lookup(key)
			if len(found) == 0 {
				stale = append(stale, fmt.Sprintf("rule %s: %s names nothing", r.name, key))
			}
			for _, o := range found {
				name := key
				if fn, ok := o.(*types.Func); ok {
					name = fn.FullName()
				}
				objs[i][o] = name
			}
		}
	}

	matched := map[string]bool{}                  // rule name + in entry
	memo := make([]map[string]string, len(rules)) // of prog.reaches, per import rule
	for i := range memo {
		memo[i] = map[string]string{}
	}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			file := filepath.Base(prog.fset.Position(f.Pos()).Filename)
			for i := range rules {
				r := &rules[i]
				for _, e := range r.in {
					if at([]string{e}, p.path, file, "") {
						matched[r.name+"\x00"+e] = true
					}
				}
				if r.imports == "" || !at(r.in, p.path, file, "") || at(r.except, p.path, file, "") {
					continue
				}
				for _, spec := range f.Imports {
					path, _ := strconv.Unquote(spec.Path.Value)
					if chain := prog.reaches(path, r, memo[i]); chain != "" {
						bad = append(bad, violation{r, prog.fset.Position(spec.Pos()), "imports " + chain})
					}
				}
			}
		}
		for _, d := range p.decls {
			file := filepath.Base(prog.fset.Position(d.node.Pos()).Filename)
			var active []int
			for i, r := range rules {
				if r.uses != nil && at(r.in, p.path, file, d.name) && !at(r.except, p.path, file, d.name) {
					active = append(active, i)
				}
			}
			if active != nil {
				bad = append(bad, prog.badUses(d, rules, active, objs)...)
			}
		}
	}
	for _, r := range rules {
		for _, e := range r.in {
			if !matched[r.name+"\x00"+e] {
				stale = append(stale, fmt.Sprintf("rule %s: in %s matches nothing", r.name, e))
			}
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		a, b := bad[i].pos, bad[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	sort.Strings(stale)
	return bad, stale
}

// badUses returns the uses in d that break one of the active use rules.
func (prog *program) badUses(d *decl, rules []rule, active []int, objs []map[types.Object]string) (bad []violation) {
	used := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return origin(d.info.Uses[e])
		case *ast.SelectorExpr:
			return origin(d.info.Uses[e.Sel])
		}
		return nil
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		_, isNil := d.info.Uses[id].(*types.Nil)
		return ok && isNil
	}
	defined := map[types.Object]types.Object{} // a variable := defined from an object, to that object
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			o := origin(d.info.Uses[n])
			for _, i := range active {
				if name, ok := objs[i][o]; ok && !rules[i].nilCompared && rules[i].argOf == nil {
					bad = append(bad, violation{&rules[i], prog.fset.Position(n.Pos()), "uses " + name})
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for k, lhs := range n.Lhs {
					if v, o := d.info.Defs[lhs.(*ast.Ident)], used(n.Rhs[k]); v != nil && o != nil {
						defined[v] = o
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				break
			}
			operand := n.X
			if isNil(n.X) {
				operand = n.Y
			} else if !isNil(n.Y) {
				break
			}
			o := used(operand)
			if from, ok := defined[o]; ok {
				o = from
			}
			for _, i := range active {
				if name, ok := objs[i][o]; ok && rules[i].nilCompared {
					bad = append(bad, violation{&rules[i], prog.fset.Position(n.Pos()), "compares " + name + " with nil"})
				}
			}
		case *ast.CallExpr:
			fn, _ := used(n.Fun).(*types.Func)
			for _, i := range active {
				if fn == nil || !slices.Contains(rules[i].argOf, fn.FullName()) {
					continue
				}
				for _, arg := range n.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if name, ok := objs[i][origin(d.info.Uses[id])]; ok {
								bad = append(bad, violation{&rules[i], prog.fset.Position(id.Pos()), "passes " + name + " to " + fn.FullName()})
							}
						}
						return true
					})
				}
			}
		}
		return true
	})
	return bad
}

// reaches returns the import chain from the package at path to one that
// r forbids, or "" if there is none, memoized in memo.
func (prog *program) reaches(path string, r *rule, memo map[string]string) string {
	if at([]string{r.imports}, path, "", "") {
		return path
	}
	tp := prog.checked[path]
	if !r.deps || tp == nil {
		return ""
	}
	chain, ok := memo[path]
	if !ok {
		for _, imp := range tp.Imports() {
			if c := prog.reaches(imp.Path(), r, memo); c != "" {
				chain = path + " → " + c
				break
			}
		}
		memo[path] = chain
	}
	return chain
}

// lookup returns the objects key names: "p.Name" or "p.T.Member" in a
// checked package p, or, for a bare name, every function and method of
// that name the modules declare.
func (prog *program) lookup(key string) []types.Object {
	var found []types.Object
	if !strings.Contains(key, ".") {
		for _, p := range prog.pkgs {
			for _, d := range p.decls {
				for _, o := range d.objs {
					if _, ok := o.(*types.Func); ok && o.Name() == key {
						found = append(found, o)
					}
				}
			}
		}
		return found
	}
	slash := strings.LastIndex(key, "/") + 1
	dot := slash + strings.Index(key[slash:], ".")
	tp := prog.checked[key[:dot]]
	if tp == nil {
		return nil
	}
	name, member, _ := strings.Cut(key[dot+1:], ".")
	o := tp.Scope().Lookup(name)
	if o != nil && member != "" {
		o, _, _ = types.LookupFieldOrMethod(o.Type(), true, tp, member)
	}
	if o != nil {
		found = append(found, o)
	}
	return found
}

// at reports whether one of places names the package path, its file, or
// the declaration decl.
func at(places []string, path, file, decl string) bool {
	for _, pl := range places {
		if prefix, ok := strings.CutSuffix(pl, "/..."); ok && (path == prefix || strings.HasPrefix(path, prefix+"/")) ||
			pl == path || pl == path+"/"+file || pl == decl {
			return true
		}
	}
	return false
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}
