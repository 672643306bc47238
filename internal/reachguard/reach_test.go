// Package reachguard checks that no shipped declaration is reached only by
// tests: it type-checks the non-test files of the root module and bench/
// with go/types, marks what the roots reach, and fails on every unmarked
// package-level declaration the allowlist does not name. With -v it logs
// the count of non-test Go lines outside bench/.
package reachguard

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The three reasons a declaration may stay although no root reaches it.
const (
	safety = "safety code: rebuilds derived state from scratch and names a divergence; offline replay will call it"
	seam   = "test seam: lets the kill/recover and tracing tests inject a crash or a clock, or read durable state"
	shared = "test support another package's tests call; a _test.go file cannot export it"
)

// allow names every declaration kept although only tests reach it, with
// its reason. An entry that is reached, or no longer exists, fails.
var allow = map[string]string{
	"dvecap/internal/core.Evaluator.Audit":           safety,
	"dvecap/internal/core.LateIndex.Audit":           safety,
	"dvecap/internal/core.LateIndex.audit":           safety,
	"dvecap/internal/core.LateIndex.auditCosts":      safety,
	"dvecap/internal/core.LateIndex.auditRow":        safety,
	"dvecap/internal/core.choiceMemo.audit":          safety,
	"dvecap/internal/core.auditClose":                safety,
	"dvecap/internal/core.TrafficCut":                safety,
	"dvecap/internal/repair.Planner.Audit":           safety,
	"dvecap/internal/repair.Machine.Audit":           safety,
	"dvecap/internal/repair.Machine.SetCrashHook":    seam,
	"dvecap/internal/director.Director.SetCrashHook": seam,
	"dvecap/internal/director.Director.DurableState": seam,
	"dvecap/internal/repair.Machine.NextLSN":         seam,
	"dvecap/telemetry.Tracer.SetClock":               seam,
	"dvecap/telemetry.ParsePrometheus":               shared,
	"dvecap/telemetry.ParsedMetrics":                 shared,
	"dvecap/telemetry.ParsedMetrics.Sample":          shared,
	"dvecap/telemetry.Sample":                        shared,
	"dvecap/telemetry.parseComment":                  shared,
	"dvecap/telemetry.parseSample":                   shared,
	"dvecap/telemetry.parseValue":                    shared,
	"dvecap/telemetry.parseLabels":                   shared,
	"dvecap/internal/xrand.RNG.IntRange":             shared,
	"dvecap/internal/xrand.RNG.Norm":                 shared,
	"dvecap/internal/xrand.RNG.Perm":                 shared,
	"dvecap/internal/core.Assignment.CheckCapacity":  shared,
	"dvecap/internal/topology.NewDelayMatrixFromRTT": shared,
	"dvecap/internal/director.Director.AddServer":    shared,
	"dvecap/internal/director.ErrDuplicateClient":    shared,
}

// decl is a function, a method, or the names of one const, var or type spec
// (of a whole const block with implicit values: a deletion would renumber),
// named by its first name.
type decl struct {
	name, where   string
	node          ast.Node
	info          *types.Info
	root, reached bool
}

// unreached returns the declarations in the modules at dirs that no root
// reaches and allow does not name, the stale allow entries, and the lines
// of the files outside rootDir. Roots: main, init, the exported identifiers
// of package api, all of rootDir, and blank declarations. A reached
// declaration reaches what it names, and a reached type its methods that
// an interface type of the universe, standard ones included, declares.
func unreached(t *testing.T, dirs []string, api, rootDir string, allow map[string]string) (dead []*decl, stale []string, lines int) {
	var pkgs [][]string // import path, directory, files...
	seen, exports := map[string]bool{}, map[string]string{}
	stdPkgs := []string{"-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for _, dir := range dirs {
		for _, line := range goList(t, dir, "-deps", "-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "./...") {
			if f := strings.Split(line, "\t"); !seen[f[0]] {
				if seen[f[0]] = true; f[1] == "true" {
					stdPkgs = append(stdPkgs, f[0])
				} else {
					pkgs = append(pkgs, append(f[:1:1], f[2:]...))
				}
			}
		}
	}
	for _, line := range goList(t, dirs[0], stdPkgs...) { // one call: importer.Default runs go list per package
		path, export, _ := strings.Cut(line, "\t")
		exports[path] = export
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	byObj := map[types.Object]*decl{}
	var decls, work []*decl
	mark := func(d *decl) {
		if d != nil && !d.reached {
			d.reached = true
			work = append(work, d)
		}
	}
	ifaces := map[string]bool{} // method names an interface declares
	addMethods := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range pkgs { // go list -deps lists dependencies first
		path, dir := p[0], p[1]
		underRoot := rootDir != "" && strings.HasPrefix(dir+string(filepath.Separator), rootDir+string(filepath.Separator))
		var files []*ast.File
		for _, f := range p[2:] {
			af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if files = append(files, af); !underRoot {
				lines += fset.File(af.Pos()).LineCount()
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = pkg
		for _, tv := range info.Types {
			addMethods(tv.Type)
		}
		add := func(name string, node ast.Node, doc *ast.CommentGroup, root bool, ids ...*ast.Ident) *decl {
			start := fset.Position(node.Pos())
			if doc != nil {
				start = fset.Position(doc.Pos())
			}
			d := &decl{name: path + "." + name, node: node, info: info, root: root || underRoot,
				where: fmt.Sprintf("%s, %d lines", start, fset.Position(node.End()).Line-start.Line+1)}
			for _, id := range ids {
				d.root = d.root || id.Name == "_" || id.IsExported() && path == api
				if o := info.Defs[id]; o != nil {
					byObj[o] = d
				}
			}
			if decls = append(decls, d); d.root {
				mark(d)
			}
			return d
		}
		for _, f := range files {
			for _, n := range f.Decls {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[n.Name].(*types.Func)
					name, root := n.Name.Name, fn.Exported() && path == api || n.Name.Name == "init" || n.Name.Name == "main" && pkg.Name() == "main"
					if recv := fn.Signature().Recv(); recv != nil {
						typ := recv.Type()
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						tn := typ.(*types.Named).Obj()
						name, root = tn.Name()+"."+name, root && tn.Exported()
					}
					byObj[fn] = add(name, n, n.Doc, root)
				case *ast.GenDecl:
					if n.Tok == token.IMPORT {
						continue
					}
					whole := len(n.Specs) == 1
					var all []*ast.Ident
					for _, s := range n.Specs {
						ids, _ := specIDs(s)
						all = append(all, ids...)
						whole = whole || n.Tok == token.CONST && len(s.(*ast.ValueSpec).Values) == 0
					}
					if whole {
						add(all[0].Name, n, n.Doc, false, all...)
						continue
					}
					for _, s := range n.Specs {
						ids, doc := specIDs(s)
						add(ids[0].Name, s, doc, false, ids...)
					}
				}
			}
		}
	}
	for path := range exports { // the standard packages' interfaces count too
		pkg, err := std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		checked[path] = pkg
	}
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			addMethods(pkg.Scope().Lookup(name).Type())
		}
	}
	addMethods(types.Universe.Lookup("error").Type())

	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := d.info.Uses[id]
			if obj == nil {
				obj = d.info.Defs[id]
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			} else if tn, ok := obj.(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); ifaces[m.Name()] {
							mark(byObj[m])
						}
					}
				}
			}
			mark(byObj[obj])
			return true
		})
	}

	names := map[string]bool{}
	for _, d := range decls {
		names[d.name] = true
		if _, ok := allow[d.name]; ok && d.reached {
			stale = append(stale, d.name+" is reached")
		} else if !ok && !d.reached {
			dead = append(dead, d)
		}
	}
	for name := range allow {
		if !names[name] {
			stale = append(stale, name+" no longer exists")
		}
	}
	sort.Strings(stale)
	return dead, stale, lines
}

func goList(t *testing.T, dir string, args ...string) []string {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func specIDs(s ast.Spec) ([]*ast.Ident, *ast.CommentGroup) {
	if v, ok := s.(*ast.ValueSpec); ok {
		return v.Names, v.Doc
	}
	ts := s.(*ast.TypeSpec)
	return []*ast.Ident{ts.Name}, ts.Doc
}

func TestShippedCodeIsReached(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(root, "bench")
	dead, stale, lines := unreached(t, []string{root, bench}, "dvecap", bench, allow)
	for _, d := range dead {
		t.Errorf("%s (%s) is reached only by tests: delete it, move it into a _test.go file, or allowlist it with a reason", d.name, d.where)
	}
	for _, s := range stale {
		t.Errorf("allowlist entry %s", s)
	}
	t.Logf("non-test Go outside bench/: %d lines", lines)
}

// TestGuardReportsFixture runs the guard on testdata/fixture: a live
// function, a String method reached only through fmt.Stringer, a function
// only a test calls, one only that function calls, an allowlisted one, and
// two stale allowlist entries.
func TestGuardReportsFixture(t *testing.T) {
	dead, stale, _ := unreached(t, []string{"testdata/fixture"}, "", "", map[string]string{
		"fixture.allowed": shared, "fixture.live": shared, "fixture.gone": shared,
	})
	var names []string
	for _, d := range dead {
		names = append(names, d.name)
	}
	sort.Strings(names)
	if want := []string{"fixture.onlyFromTestOnly", "fixture.testOnly"}; !reflect.DeepEqual(names, want) {
		t.Errorf("dead = %v, want %v", names, want)
	}
	if want := []string{"fixture.gone no longer exists", "fixture.live is reached"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}
