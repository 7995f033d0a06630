// Package reach is the reachability gate: it fails when an exported
// identifier of the root package or of internal/ has no reference
// outside _test.go files and no entry in allowlist.txt.
//
// staticcheck (U1000) catches unused unexported code; nothing else
// catches an exported func, type, var, const or method that nothing
// calls. The gate type-checks every package `go list -deps ./...`
// reaches from the repository root and from cmd/bench (its own
// module, and a caller of the library), using only the non-test files,
// and reports every exported package-level declaration of the module
// that none of them uses. Struct fields are out of scope. A method is
// exempt when its receiver implements an interface, from any package
// in the import graph, that includes the method: heap.Interface,
// fmt.Stringer, io.Reader and http.Handler methods are called through
// the interface, never by name.
//
// An allowlist entry is one line, `pkg.Name  reason` (`pkg.Type.Method`
// for a method); the reason is required. The check also fails on an
// entry that is no longer flagged, so the list never hides anything.
//
//	go test ./scripts/reach
package reach

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestReachability(t *testing.T) {
	flagged, err := unreached("repro", "../..", "../../cmd/bench")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compare(flagged, allow) {
		t.Error(p)
	}
}

// TestReachabilityFixture runs the checker on testdata/fixture: a dead
// func and a func only its test calls are flagged; a used func and a
// heap.Interface type's methods are not.
func TestReachabilityFixture(t *testing.T) {
	flagged, err := unreached("fixture", "testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for id := range flagged {
		got = append(got, id)
	}
	sort.Strings(got)
	if want := []string{"fixture.Dead", "fixture.TestOnly"}; !slices.Equal(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}

	allow := map[string]string{"fixture.Dead": "r", "fixture.TestOnly": "r"}
	if p := compare(flagged, allow); len(p) != 0 {
		t.Fatalf("complete allowlist rejected: %v", p)
	}
	delete(allow, "fixture.TestOnly")
	if p := compare(flagged, allow); len(p) != 1 || !strings.Contains(p[0], "fixture.TestOnly") {
		t.Fatalf("missing entry: problems %v, want one naming fixture.TestOnly", p)
	}
	allow["fixture.TestOnly"] = "r"
	allow["fixture.Used"] = "stale"
	if p := compare(flagged, allow); len(p) != 1 || !strings.Contains(p[0], "stale allowlist entry fixture.Used") {
		t.Fatalf("stale entry: problems %v, want one naming fixture.Used", p)
	}
}

func TestReadAllowlistNeedsReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("# comment\n\nfixture.Dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(path); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Fatalf("entry without a reason: err %v", err)
	}
}

// compare returns one line per flagged identifier without an allowlist
// entry and per entry that is no longer flagged.
func compare(flagged, allow map[string]string) []string {
	var problems []string
	for id, pos := range flagged {
		if _, ok := allow[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s has no non-test reference: delete it, move it into a _test.go file, or allowlist it with a reason", pos, id))
		}
	}
	for id := range allow {
		if _, ok := flagged[id]; !ok {
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: it is referenced now (or gone); remove the line", id))
		}
	}
	sort.Strings(problems)
	return problems
}

func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s has no reason", path, n, id)
		}
		allow[id] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// listedPackage is the part of `go list -json` output the checker reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// listPackages returns the union of `go list -deps ./...` run in each
// directory, dependencies before dependents, each import path once.
func listPackages(dirs ...string) ([]listedPackage, error) {
	var pkgs []listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOWORK=off")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Error != nil {
				return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs, nil
}

// sourceImporter hands out the packages type-checked from source and
// falls back to export data for the standard library.
type sourceImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.checked[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// decl is one exported package-level declaration of the module.
type decl struct {
	id   string
	obj  types.Object
	at   token.Pos
	span [2]token.Pos // a use inside the declaration itself does not count
}

// unreached type-checks the non-test files of every package the dirs
// reach and returns, by id, the position of each exported declaration
// of module mod (the module's root package and mod/internal/...) that
// nothing uses.
func unreached(mod string, dirs ...string) (map[string]string, error) {
	pkgs, err := listPackages(dirs...)
	if err != nil {
		return nil, err
	}
	inScope := func(path string) bool { return path == mod || strings.HasPrefix(path, mod+"/internal/") }

	fset := token.NewFileSet()
	im := &sourceImporter{checked: map[string]*types.Package{}, std: importer.Default()}
	used := map[types.Object]bool{}
	spans := map[types.Object][2]token.Pos{}
	var decls []decl
	for _, lp := range pkgs {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		// Opening the directory makes a cached pass depend on its file
		// list, not only on the files read below.
		if _, err := os.ReadDir(lp.Dir); err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		im.checked[lp.ImportPath] = pkg

		var receivers [][2]token.Pos
		if inScope(lp.ImportPath) {
			for _, f := range files {
				for _, d := range exportedDecls(pkg, f, info) {
					spans[d.obj] = d.span
					decls = append(decls, d)
				}
			}
		}
		for _, f := range files {
			for _, fd := range f.Decls {
				if fd, ok := fd.(*ast.FuncDecl); ok && fd.Recv != nil {
					receivers = append(receivers, [2]token.Pos{fd.Recv.Pos(), fd.Recv.End()})
				}
			}
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == nil || !inScope(obj.Pkg().Path()) || used[obj] {
				continue
			}
			if s, ok := spans[obj]; ok && within(id.Pos(), s) {
				continue
			}
			if slices.ContainsFunc(receivers, func(r [2]token.Pos) bool { return within(id.Pos(), r) }) {
				continue
			}
			used[obj] = true
		}
	}

	ifaces := interfaces(im.checked)
	flagged := map[string]string{}
	for _, d := range decls {
		if used[d.obj] || implementsInterface(d.obj, ifaces) {
			continue
		}
		flagged[d.id] = fset.Position(d.at).String()
	}
	return flagged, nil
}

func within(p token.Pos, span [2]token.Pos) bool { return span[0] <= p && p < span[1] }

// exportedDecls lists f's exported package-level funcs, types, vars and
// consts and its exported methods, whatever the receiver's name.
func exportedDecls(pkg *types.Package, f *ast.File, info *types.Info) []decl {
	var out []decl
	add := func(name *ast.Ident, prefix string, span [2]token.Pos) {
		if !name.IsExported() {
			return
		}
		out = append(out, decl{id: pkg.Name() + "." + prefix + name.Name, obj: info.Defs[name], span: span, at: name.Pos()})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			prefix := ""
			if d.Recv != nil {
				prefix = receiverName(d.Recv.List[0].Type) + "."
			}
			add(d.Name, prefix, [2]token.Pos{d.Pos(), d.End()})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "", [2]token.Pos{s.Pos(), s.End()})
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, "", [2]token.Pos{s.Pos(), s.End()})
					}
				}
			}
		}
	}
	return out
}

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// interfaces returns every package-level method-set interface declared
// in the checked packages, in the packages they import (transitively),
// and the universe's error.
func interfaces(checked map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	return out
}

// implementsInterface reports whether obj is a method whose receiver
// type (or its pointer) implements one of ifaces that has the method.
func implementsInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
