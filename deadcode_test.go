package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// checkedRoots are the trees whose exported names must have a non-test user.
// Every non-test file of the module counts as a user, benchmark/ included.
var checkedRoots = []string{"internal", "cmd"}

// exportAllowlist names the exported declarations that may have no non-test
// user, each with the reason it stays. A key is "dir.Name" for a func, type,
// var or const and "dir.Type.Method" for a method, dir being the package's
// directory; every key must name a declaration that exists and still has no
// user, so the list cannot go stale.
var exportAllowlist = map[string]string{
	// DESIGN §2's paper primitives: the library's surface, tested whether or
	// not a shipped program calls them.
	"internal/core.Pick":             "Fig. 3's sample over a choice; [SAMPLE] in DESIGN §2, TestIntAndPick",
	"internal/core.P.ExposeIn":       "Fig. 3's expose into a named scope; [EXPOSE] in DESIGN §2, TestExposeLoadAcrossScopes",
	"internal/core.SP.CheckFn":       "Fig. 3's check with its callback cbChk; [CHECK] and [INVOKE] in DESIGN §2, TestCheckFn",
	"internal/core.SP.Sync":          "Fig. 3's sync; [SYNC-S] and [SYNC-T] in DESIGN §2, TestFig8Rules",
	"internal/core.Result.Vars":      "other packages' tests compare runs by a dump of every variable: TestDeterminismMatrix (cmd/wbtuned) and internal/remote's dumpRegion (TestLoopbackSyncBodyRunsLocally and others)",
	"internal/core.Tuner.SlotsInUse": "internal/remote's TestJobCloseReleasesRemoteSnapshots checks a cancelled job holds no slots",

	// Methods the standard library calls through its interfaces.
	"internal/core.PriorityClass.MarshalJSON":   "json.Marshaler: a JobSpec's class on the wire",
	"internal/core.PriorityClass.UnmarshalJSON": "json.Unmarshaler: a JobSpec's class on the wire",
	"internal/core.transientError.Unwrap":       "errors.Is/As reach the wrapped failure",
	"internal/wire.Error.Unwrap":                "errors.Is/As reach the wrapped failure",
	"internal/kmeans.State.GobEncode":           "gob.GobEncoder: committed states keep unexported fields through the journal",
	"internal/kmeans.State.GobDecode":           "gob.GobDecoder: committed states keep unexported fields through the journal",
	"internal/topn.Model.GobEncode":             "gob.GobEncoder: the model, with no exported field, goes through the journal",
	"internal/topn.Model.GobDecode":             "gob.GobDecoder: the model, with no exported field, goes through the journal",
	"internal/remote/transport.memAddr.Network": "net.Addr of the in-memory transport",

	// Test support: packages and helpers that exist for other packages'
	// tests.
	"internal/faultinject.New":                "test support: fault plans for core and remote tests",
	"internal/faultinject.Apply":              "test support: wraps a body with its fault plan",
	"internal/faultinject.Fault.CorruptFloat": "test support: corrupted-result faults",
	"internal/faultinject.NewNet":             "test support: network faults for remote tests",
	"internal/faultinject.faultyConn.WasCut":  "test support: TestVirtualFleetChaos asks whether a cut fired",
	"internal/leakcheck.Check":                "test support: the goroutine leak check every package's tests use",
	"internal/remote/transport.NewMem":        "test support: the in-memory transport of remote tests",
	"internal/remote/transport.SelfSigned":    "test support: the TLS certificate of transport tests",
}

// TestExportsHaveUsers fails on any exported top-level name under internal/
// or cmd/ that no non-test file uses (see deadExports for what counts as a
// use), and on any exportAllowlist entry that is stale.
func TestExportsHaveUsers(t *testing.T) {
	dead, stale, err := deadExports(".", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no non-test user: delete it, unexport it, or allowlist it with a reason", d)
	}
	for _, s := range stale {
		t.Errorf("exportAllowlist: %s", s)
	}
}

// TestDeadExportsPlanted runs the check over a small tree holding one unused
// func, one method selected only by a test, one name used only from
// benchmark/ and one allowlisted name: exactly the first two are reported,
// and allowlist entries that are unneeded or name nothing are stale.
func TestDeadExportsPlanted(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n",
		"internal/a/a.go": `package a

func Unused() {}

type T struct{}

func (T) OnlyTested() {}

func ForBench() {}

func Allowed() {}

func Used() int { return helper() }

func helper() int { return 1 }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestT(t *testing.T) { T{}.OnlyTested(); Unused() }
`,
		"internal/b/b.go": `package b

import alias "planted/internal/a"

var N = alias.Used()

var _ alias.T
`,
		"benchmark/main.go": `package main

import (
	"planted/internal/a"
	"planted/internal/b"
)

func main() { a.ForBench(); _ = b.N }
`,
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := mkdirWrite(p, src); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{"internal/a.Allowed": "planted"}
	dead, stale, err := deadExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.T.OnlyTested (internal/a/a.go:7)", "internal/a.Unused (internal/a/a.go:3)"}
	if fmt.Sprint(dead) != fmt.Sprint(want) || len(stale) != 0 {
		t.Fatalf("dead = %q, stale = %q; want %q and none", dead, stale, want)
	}

	allow["internal/a.Gone"] = "deleted"
	allow["internal/a.Used"] = "has a user"
	_, stale, err = deadExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 2 || !strings.Contains(stale[0], "internal/a.Gone") || !strings.Contains(stale[1], "internal/a.Used") {
		t.Fatalf("stale = %q; want internal/a.Gone and internal/a.Used", stale)
	}
}

// deadExports parses every non-test .go file under root and returns the
// exported top-level funcs, types, vars, consts and methods declared under
// checkedRoots that have no user, sorted, less those allow names; stale lists
// the allow entries that name no declaration or a declaration with a user.
// A name is used when another package selects it through its import, when
// its own package names it outside its declaration (a method's receiver does
// not count), or, for a method, when any file selects that spelling.
func deadExports(root string, allow map[string]string) (dead, stale []string, err error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == ".git" || n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		byDir[dir] = append(byDir[dir], f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// pkgName maps an import path of the module to its package's name.
	pkgName := map[string]string{}
	for dir, files := range byDir {
		pkgName[path.Join(module, dir)] = files[0].Name.Name
	}

	type decl struct {
		key, where string
		method     string // the method name, for a method
		node       ast.Node
	}
	var decls []decl
	imported := map[string]bool{}        // "dir.Name" selected through an import
	localUse := map[string][]token.Pos{} // "dir.Name" -> positions of bare idents
	selected := map[string]bool{}        // every selected spelling

	for dir, files := range byDir {
		checked := false
		for _, r := range checkedRoots {
			if dir == r || strings.HasPrefix(dir, r+"/") {
				checked = true
			}
		}
		for _, f := range files {
			imports := map[string]string{} // local name -> dir
			for _, is := range f.Imports {
				ip := strings.Trim(is.Path.Value, `"`)
				if !strings.HasPrefix(ip, module+"/") {
					continue
				}
				name := pkgName[ip]
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = strings.TrimPrefix(ip, module+"/")
			}
			// The names being declared, and receiver types, are not uses.
			skip := map[*ast.Ident]bool{}
			declare := func(id *ast.Ident, key, method string, node ast.Node) {
				skip[id] = true
				if checked && id.IsExported() {
					pos := fset.Position(id.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					decls = append(decls, decl{key, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), method, node})
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name, dir+"."+d.Name.Name, "", d)
						continue
					}
					declare(d.Name, dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, d)
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, dir+"."+s.Name.Name, "", s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(n, dir+"."+n.Name, "", s)
							}
						}
					}
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if pd, ok := imports[x.Name]; ok {
							imported[pd+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n.IsExported() && !skip[n] {
						localUse[dir+"."+n.Name] = append(localUse[dir+"."+n.Name], n.Pos())
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := imported[d.key] || d.method != "" && selected[d.method]
		if d.method == "" {
			for _, p := range localUse[d.key] {
				if p < d.node.Pos() || p >= d.node.End() {
					used = true
				}
			}
		}
		_, allowed := allow[d.key]
		switch {
		case allowed && used:
			stale = append(stale, d.key+" has a user; drop the entry")
		case !allowed && !used:
			dead = append(dead, d.key+" ("+d.where+")")
		}
	}
	for k := range allow {
		if !declared[k] {
			stale = append(stale, k+" names no exported declaration")
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

func mkdirWrite(p, src string) error {
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, []byte(src), 0o644)
}
