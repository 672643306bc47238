package dvecap

// Enforces the public-surface contract of the Cluster API redesign: no
// internal/... type may appear in an exported signature of this package —
// exported functions and methods (params and results), exported struct
// fields, exported type definitions, and typed exported vars/consts. The
// check is syntactic (go/ast over this package's sources), so it holds
// for every build tag combination without needing type information. There
// are no exceptions.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestExportedAPIExposesNoInternalTypes(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	// The file-driven scan covers every source file automatically; this
	// roster of surface anchors — the builder, the session, the generator's
	// bridge to them ("Type.Method"), live-topology verbs — guards against
	// the scan silently running over an emptied or renamed surface.
	anchors := map[string]bool{
		"Scenario.Cluster":   false, // the generator hands over a Cluster
		"Cluster":            false, // PR 4 builder
		"ClusterSession":     false, // PR 4 session
		"ClientJoin":         false, // PR 5 batch join
		"ZoneSpec":           false, // PR 5 live zones
		"ServerStatus":       false, // PR 5 server inventory
		"UnmeasuredRTTMs":    false, // PR 5 deferred measurement sentinel
		"ErrServerNotEmpty":  false, // PR 5 topology sentinels
		"ErrLastServer":      false,
		"ErrZoneNotEmpty":    false,
		"ErrUnknownServer":   false,
		"WriteClusterJSON":   false, // PR 5 spec export (method)
		"JoinBatch":          false, // PR 5 batch join (method)
		"DrainServer":        false, // PR 5 drain (method)
		"UpdateServerDelays": false, // PR 5 column-form refresh (method)
	}
	// Names taken off the surface stay off: the deduplicating row store is
	// what DenseDelays names, not a delay model of its own, a solve's
	// local-search pass had no caller outside the tests, and every solve
	// spills on overflow, so there is no policy to choose.
	gone := map[string]bool{
		"SharedRowDelays": false, "WithLocalSearchRounds": false,
		"WithOverflow": false, "OverflowPolicy": false, "SpillLargestResidual": false, "ErrorOnOverflow": false,
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		violations = append(violations, fileViolations(fset, f)...)
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if _, ok := anchors[d.Name.Name]; ok {
					anchors[d.Name.Name] = true
				}
				if _, ok := gone[d.Name.Name]; ok && d.Recv == nil {
					gone[d.Name.Name] = true
				}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					m := receiverTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
					if _, ok := anchors[m]; ok {
						anchors[m] = true
					}
				}
			case *ast.TypeSpec:
				if _, ok := anchors[d.Name.Name]; ok {
					anchors[d.Name.Name] = true
				}
				if _, ok := gone[d.Name.Name]; ok {
					gone[d.Name.Name] = true
				}
			case *ast.ValueSpec:
				for _, id := range d.Names {
					if _, ok := anchors[id.Name]; ok {
						anchors[id.Name] = true
					}
					if _, ok := gone[id.Name]; ok {
						gone[id.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, v := range violations {
		t.Errorf("internal type in exported signature: %s", v)
	}
	for name, seen := range anchors {
		if !seen {
			t.Errorf("expected exported surface anchor %q not found in package sources", name)
		}
	}
	for name, seen := range gone {
		if seen {
			t.Errorf("%q is back on the exported surface", name)
		}
	}
}

// fileViolations scans one file's exported declarations for references to
// internal imports.
func fileViolations(fset *token.FileSet, f *ast.File) []string {
	// Local name → true for every dvecap/internal/... import.
	internalPkgs := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.HasPrefix(path, "dvecap/internal/") {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		internalPkgs[local] = true
	}
	if len(internalPkgs) == 0 {
		return nil
	}

	var out []string
	report := func(where string, expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && internalPkgs[id.Name] {
				out = append(out, fmt.Sprintf("%s: %s references %s.%s",
					fset.Position(sel.Pos()), where, id.Name, sel.Sel.Name))
			}
			return true
		})
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			where := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := receiverTypeName(d.Recv.List[0].Type)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type is not public API
				}
				where = recv + "." + d.Name.Name
			}
			if d.Type.Params != nil {
				for _, p := range d.Type.Params.List {
					report("func "+where, p.Type)
				}
			}
			if d.Type.Results != nil {
				for _, r := range d.Type.Results.List {
					report("func "+where, r.Type)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						reportTypeExpr(report, "type "+s.Name.Name, s.Type)
					}
				case *ast.ValueSpec:
					if s.Type == nil {
						continue // untyped var/const: only the value mentions the package
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report("var "+n.Name, s.Type)
						}
					}
				}
			}
		}
	}
	return out
}

// reportTypeExpr walks an exported type definition, descending only into
// its exported parts: unexported struct fields and interface methods are
// implementation detail, free to hold internal types.
func reportTypeExpr(report func(string, ast.Expr), where string, expr ast.Expr) {
	switch t := expr.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			if len(field.Names) == 0 { // embedded
				report(where, field.Type)
				continue
			}
			for _, n := range field.Names {
				if n.IsExported() {
					report(where+"."+n.Name, field.Type)
					break
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 || m.Names[0].IsExported() {
				report(where, m.Type)
			}
		}
	default:
		report(where, expr)
	}
}

func receiverTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// TestDocumentedOptionsExist: every With… name README.md, doc.go,
// DESIGN.md §9 and the examples' READMEs mention is a func this package
// declares, so a deleted option cannot linger in the docs.
func TestDocumentedOptionsExist(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec9, ok := strings.Cut(string(design), "\n## §9 ")
	if !ok {
		t.Fatal("DESIGN.md has no §9")
	}
	sec9, _, _ = strings.Cut(sec9, "\n## ")
	docs := map[string]string{"DESIGN.md §9": sec9}
	examples, err := filepath.Glob("examples/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"README.md", "doc.go"}, examples...) {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(raw)
	}
	option := regexp.MustCompile(`\bWith[A-Z]\w*`)
	for doc, text := range docs {
		names := option.FindAllString(text, -1)
		if len(names) == 0 && !strings.HasPrefix(doc, "examples") {
			t.Errorf("%s names no With… option; the scan is running over the wrong text", doc)
		}
		for _, name := range names {
			if !funcs[name] {
				t.Errorf("%s names %s, which this package does not declare", doc, name)
			}
		}
	}
}
