package actor_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the root module's import path; the benchmarks module nests
// under it, so for both modules an import path minus this prefix is the
// package's directory relative to the repository root.
const modulePath = "github.com/greenhpc/actor"

// surfaceExceptions lists internal exports allowed to have no caller outside
// their own tests, each with the reason the test prints. Keys are
// "<dir>.<Name>".
var surfaceExceptions = map[string]string{
	"internal/topology.ConfigByName": "test fixture shared by the machine, dvfs and root benchmark tests, which name paper configurations through it; one copy beats three",
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, http.Handler, http.RoundTripper,
// sort.Interface, heap.Interface, json.Marshaler, io.Closer, …): an
// implementation needs no selector in the module to be live.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
}

// surfaceKey names one package-level identifier: its package directory
// (slash-separated, relative to the repository root) and its name.
type surfaceKey struct{ dir, name string }

func (k surfaceKey) String() string { return k.dir + "." + k.name }

// TestInternalExportsHaveCallers fails for every exported package-level
// func, type, var or const declared in a non-test file under internal/
// that no other non-test file references — by a pkg.Name selector from
// another package, or by a bare Name elsewhere in its own package. Test
// files, examples/, cmd/ and benchmarks/ are all scanned; only non-test
// files count as callers. It parses and never type-checks, so a bare
// identifier that merely shares a declared name (a shadowing local, say)
// also counts as a reference and the guard errs toward missing dead code.
// The one way it can report live code is a name used only as a
// composite-literal key, which it reads as a field name.
//
// Exported methods under internal/ are held to a looser rule (see
// methodsWithoutCallers): some non-test file must select a member of that
// name, on any type.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset, files := parseNonTestFiles(t)

	declared := map[surfaceKey]token.Pos{}
	for dir, fs := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range fs {
			for _, decl := range f.Decls {
				for _, id := range declaredNames(decl) {
					if id.IsExported() {
						declared[surfaceKey{dir, id.Name}] = id.Pos()
					}
				}
			}
		}
	}

	used := references(files)
	var missing []string
	for k, pos := range declared {
		reason, excepted := surfaceExceptions[k.String()]
		switch {
		case used[k] && excepted:
			t.Errorf("%s has a caller now; drop its exception", k)
		case excepted:
			t.Logf("exception %s: %s", k, reason)
		case !used[k]:
			missing = append(missing, fset.Position(pos).String()+": "+k.String())
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is exported but no non-test file references it; delete or unexport it", m)
	}
	for _, m := range methodsWithoutCallers(t, fset, files) {
		t.Errorf("%s is an exported method but no non-test file selects it; delete it or move it into its package's tests", m)
	}
	for k := range surfaceExceptions {
		var dir, name string
		if i := strings.LastIndex(k, "."); i >= 0 {
			dir, name = k[:i], k[i+1:]
		}
		if _, ok := declared[surfaceKey{dir, name}]; !ok {
			t.Errorf("exception %s names no exported declaration", k)
		}
	}
}

// TestUnexportedFuncsHaveCallers fails for every unexported func or method
// declared in a non-test file, anywhere in the repository, that no non-test
// file of its own package calls (main and init excepted). A helper only
// tests call belongs in those tests. A func counts as called when a
// non-test file of its package names it (as TestInternalExportsHaveCallers
// reads references); a method when one selects a member of its name, on
// any type, or when an interface of its package declares the name. Like
// TestInternalExportsHaveCallers it parses without type-checking, so a
// reference from a file of any build constraint counts, and so does a
// bare identifier or selector that only shares the name.
func TestUnexportedFuncsHaveCallers(t *testing.T) {
	fset, files := parseNonTestFiles(t)
	used := references(files)
	selected, inInterface := memberNames(files)
	var missing []string
	for dir, fs := range files {
		for _, f := range fs {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() {
					continue
				}
				name, k := fd.Name.Name, surfaceKey{dir, fd.Name.Name}
				switch {
				case fd.Recv != nil:
					if !selected[k] && !inInterface[k] {
						missing = append(missing, fset.Position(fd.Name.Pos()).String()+": "+dir+"."+receiverType(fd.Recv.List[0].Type)+"."+name)
					}
				case name == "init" || (name == "main" && f.Name.Name == "main"):
				case !used[k]:
					missing = append(missing, fset.Position(fd.Name.Pos()).String()+": "+k.String())
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is unexported but no non-test file of its package references it; delete it or move it into the tests that call it", m)
	}
}

// parseNonTestFiles parses every non-test .go file of the repository, the
// benchmarks module included, keyed by package directory (slash-separated,
// relative to the repository root).
func parseNonTestFiles(t *testing.T) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// references returns every package-level name the files refer to, as
// markReferences records them.
func references(files map[string][]*ast.File) map[surfaceKey]bool {
	used := map[surfaceKey]bool{}
	for dir, fs := range files {
		for _, f := range fs {
			imports := map[string]string{} // local name → package dir
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				rel, ok := strings.CutPrefix(ip, modulePath+"/")
				if !ok {
					continue
				}
				local := path.Base(rel)
				if pf := files[rel]; len(pf) > 0 {
					local = pf[0].Name.Name
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = rel
			}
			for _, decl := range f.Decls {
				markReferences(decl, dir, imports, used)
			}
		}
	}
	return used
}

// memberNames returns, keyed by package directory, the member names the
// files of that package select (x.Name) and the method names its
// interfaces declare.
func memberNames(files map[string][]*ast.File) (selected, inInterface map[surfaceKey]bool) {
	selected, inInterface = map[surfaceKey]bool{}, map[surfaceKey]bool{}
	for dir, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[surfaceKey{dir, n.Sel.Name}] = true
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							inInterface[surfaceKey{dir, id.Name}] = true
						}
					}
				}
				return true
			})
		}
	}
	return selected, inInterface
}

// methodsWithoutCallers returns the exported methods declared in files
// under internal/ whose name no .Name selector in files uses, as
// "position: dir.Recv.Name". Without types it cannot tell whose method a
// selector calls, so any selector of the name counts. A method whose name
// an interface of the module declares, or a standard-library interface
// (stdlibMethods), may be called through that interface instead; those are
// exempt, and the test logs each exemption it applies.
func methodsWithoutCallers(t *testing.T, fset *token.FileSet, files map[string][]*ast.File) []string {
	selectedIn, inInterfaceIn := memberNames(files)
	selected := map[string]bool{}
	for k := range selectedIn {
		selected[k.name] = true
	}
	inInterface := map[string]bool{}
	for k := range inInterfaceIn {
		inInterface[k.name] = true
	}
	methods := map[string]*ast.FuncDecl{} // "dir.Recv.Name" → declaration
	for dir, fs := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range fs {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					methods[dir+"."+receiverType(fd.Recv.List[0].Type)+"."+fd.Name.Name] = fd
				}
			}
		}
	}
	var missing, exempt []string
	for k, fd := range methods {
		name := fd.Name.Name
		switch {
		case selected[name]:
		case inInterface[name]:
			exempt = append(exempt, k+": declared in an interface of the module")
		case stdlibMethods[name]:
			exempt = append(exempt, k+": a standard-library interface method")
		default:
			missing = append(missing, fset.Position(fd.Name.Pos()).String()+": "+k)
		}
	}
	std := make([]string, 0, len(stdlibMethods))
	for name := range stdlibMethods {
		std = append(std, name)
	}
	sort.Strings(std)
	t.Logf("method names exempt as standard-library interface methods: %s", strings.Join(std, ", "))
	sort.Strings(exempt)
	for _, e := range exempt {
		t.Logf("method exemption %s", e)
	}
	sort.Strings(missing)
	return missing
}

// declaredNames returns the package-level names a declaration introduces;
// methods introduce none.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// markReferences records in used every package-level name decl refers to:
// pkg.Name selectors through the file's imports, and bare identifiers as
// names of decl's own package. A spec's or func's references to the names
// it declares itself, a method's to its receiver type, field and method
// names and the keys of composite literals do not count.
func markReferences(decl ast.Decl, dir string, imports map[string]string, used map[surfaceKey]bool) {
	if gd, ok := decl.(*ast.GenDecl); ok && len(gd.Specs) > 1 {
		for _, spec := range gd.Specs {
			markReferences(&ast.GenDecl{Tok: gd.Tok, Specs: []ast.Spec{spec}}, dir, imports, used)
		}
		return
	}
	self := map[string]bool{}
	for _, id := range declaredNames(decl) {
		self[id.Name] = true
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				for _, field := range n.Recv.List {
					self[receiverType(field.Type)] = true
				}
			}
			if n.Type.TypeParams != nil {
				ast.Inspect(n.Type.TypeParams, visit)
			}
			ast.Inspect(n.Type.Params, visit)
			if n.Type.Results != nil {
				ast.Inspect(n.Type.Results, visit)
			}
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					used[surfaceKey{pkg, n.Sel.Name}] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); !ok {
				ast.Inspect(n.Key, visit)
			}
			ast.Inspect(n.Value, visit)
			return false
		case *ast.Ident:
			if !self[n.Name] {
				used[surfaceKey{dir, n.Name}] = true
			}
		}
		return true
	}
	ast.Inspect(decl, visit)
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}

// TestActorOwnsNoGoroutine is TestServerOwnsNoGoroutine's static twin: no
// non-test file of pkg/actor holds a go statement, a chan type, a send, a
// receive or a select. The library runs on its callers' goroutines:
// recalibration runs on the one that calls Trigger.
func TestActorOwnsNoGoroutine(t *testing.T) {
	files, err := filepath.Glob("pkg/actor/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, p := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "go statement"
			case *ast.ChanType:
				what = "chan type"
			case *ast.SendStmt:
				what = "send"
			case *ast.SelectStmt:
				what = "select"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					what = "receive"
				}
			}
			if what != "" {
				t.Errorf("%s: %s in pkg/actor, which owns no goroutine", fset.Position(n.Pos()), what)
			}
			return true
		})
	}
}

// TestGoModRequiresNothing: go.mod has no require directive, alone or as a
// block — the module builds from the standard library alone.
func TestGoModRequiresNothing(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "//")
		if fields := strings.Fields(line); len(fields) > 0 && strings.HasPrefix(fields[0], "require") {
			t.Errorf("go.mod:%d: %q: the module requires nothing outside the standard library", i+1, strings.TrimSpace(line))
		}
	}
}

// TestEveryCommandIsExecuted fails for every cmd/<name> that nothing runs.
// A command counts as executed when its directory holds a _test.go file,
// or when a scripts/*.sh that a Makefile recipe runs names ./cmd/<name>
// outside a comment. Linking alone (make build-cmds) does not count.
func TestEveryCommandIsExecuted(t *testing.T) {
	cmds := programs(t, "cmd")
	for _, dir := range sortedKeys(cmds) {
		switch by := cmds[dir]; by {
		case "":
			t.Errorf("%s has no _test.go and no script a Makefile target runs names ./%s; test it or delete it", dir, dir)
		case "tests":
		default:
			t.Logf("%s has no tests; %s runs it", dir, by)
		}
	}
}

// TestEveryInternalPackageIsExecuted fails for every package under
// internal/ that no executed program reaches: none of its importers,
// followed back through the module's non-test files, is a cmd/ or
// examples/ program that TestEveryCommandIsExecuted's rule counts as
// executed. A package only tests import ships nothing. It parses import
// blocks only, across every build constraint, so a package imported by an
// arm64 or actor_noasm file alone counts as reached.
func TestEveryInternalPackageIsExecuted(t *testing.T) {
	fset := token.NewFileSet()
	imports := map[string][]string{} // package dir → module package dirs it imports
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		deps := imports[dir]
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(ip, modulePath+"/"); ok {
				deps = append(deps, rel)
			}
		}
		imports[dir] = deps // listed even when it imports nothing of the module
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]string{} // package dir → the program that reaches it
	var queue []string
	for _, parent := range []string{"cmd", "examples"} {
		progs := programs(t, parent)
		for _, dir := range sortedKeys(progs) {
			if progs[dir] != "" {
				reached[dir] = dir
				queue = append(queue, dir)
			}
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, dep := range imports[dir] {
			if _, ok := reached[dep]; !ok {
				reached[dep] = reached[dir]
				queue = append(queue, dep)
			}
		}
	}
	for _, dir := range sortedKeys(imports) {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		if by, ok := reached[dir]; ok {
			t.Logf("%s runs in %s", dir, by)
		} else {
			t.Errorf("%s is imported by no executed cmd/ or examples/ program, directly or transitively; use it or delete it", dir)
		}
	}
}

// programs returns every program directory under parent ("cmd" or
// "examples") with what executes it: "tests" when the directory holds a
// _test.go file, else a scripts/*.sh that a Makefile recipe runs and that
// names ./<parent>/<name> outside a comment, else "".
func programs(t *testing.T, parent string) map[string]string {
	t.Helper()
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	scriptRe := regexp.MustCompile(`scripts/[\w.-]+\.sh`)
	progRe := regexp.MustCompile(`\./(` + parent + `/[\w-]+)`)
	scripted := map[string]string{} // program dir → a script that runs it
	for _, line := range strings.Split(string(makefile), "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue // only recipe lines run anything
		}
		for _, script := range scriptRe.FindAllString(line, -1) {
			body, err := os.ReadFile(script)
			if err != nil {
				t.Fatal(err)
			}
			for _, sl := range strings.Split(string(body), "\n") {
				if strings.HasPrefix(strings.TrimSpace(sl), "#") {
					continue
				}
				for _, m := range progRe.FindAllStringSubmatch(sl, -1) {
					scripted[m[1]] = script
				}
			}
		}
	}

	dirs, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := parent + "/" + d.Name()
		tests, err := filepath.Glob(filepath.Join(parent, d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) > 0 {
			out[dir] = "tests"
		} else {
			out[dir] = scripted[dir]
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
