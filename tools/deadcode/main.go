// Command deadcode fails when a function or method declared in a non-test
// file under internal/ is linked by no root binary and not excused by
// allowlist.txt: at most 10 lines "key reason", the key a function
// (repro/internal/pkg.Func, repro/internal/pkg.Type.Method) or a package
// path. The roots are every main package of the repro and perfbench
// modules, built with -gcflags=all=-l, and a generated program that links
// the exported trustnet API; DESIGN.md, "What counts as production code",
// gives the rules. Run it from the repository root:
//
//	go run ./tools/deadcode
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const maxAllowlist = 10

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := goCmd("", "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return err
	}
	allow, err := readAllowlist(filepath.Join(root, "tools", "deadcode", "allowlist.txt"))
	if err != nil {
		return err
	}
	decls, err := declaredFuncs(root, "./internal/...")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bins, err := buildRoots(root, tmp)
	if err != nil {
		return err
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		nm, err := goCmd("", "tool", "nm", bin)
		if err != nil {
			return err
		}
		addSymbols(linked, nm)
	}
	dead, stale := unlinked(decls, linked, allow)
	for _, d := range dead {
		fmt.Printf("%s:%d: %s is linked by no binary (%d lines)\n", d.file, d.line, d.key, d.lines)
	}
	for _, key := range stale {
		fmt.Printf("allowlist entry %s excuses no unlinked function\n", key)
	}
	fmt.Printf("%d roots, %d functions under internal/, %d unlinked, %d allowlist entries\n",
		len(bins), len(decls), len(dead), len(allow))
	if len(dead)+len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions, %d stale allowlist entries", len(dead), len(stale))
	}
	return nil
}

// goCmd runs the go command in dir and returns its trimmed output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// buildRoots builds every root binary into dir and returns their paths.
func buildRoots(root, dir string) ([]string, error) {
	var bins []string
	build := func(mod, pkg, bin string) error {
		bins = append(bins, filepath.Join(dir, bin))
		_, err := goCmd(mod, "build", "-gcflags=all=-l", "-o", bins[len(bins)-1], pkg)
		return err
	}
	for _, mod := range []string{root, filepath.Join(root, "perfbench")} {
		mains, err := goCmd(mod, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
		if err != nil {
			return nil, err
		}
		for _, pkg := range strings.Fields(mains) {
			if err := build(mod, pkg, strings.ReplaceAll(pkg, "/", "_")); err != nil {
				return nil, err
			}
		}
	}
	src, err := facadeRoots()
	if err != nil {
		return nil, err
	}
	// dir becomes the generated program's module; the binaries in it are
	// not Go files, so they do not join the package.
	gomod := "module facaderoots\n\ngo 1.23\n\nrequire repro v0.0.0\n\nreplace repro => " + root + "\n"
	for name, data := range map[string]string{"go.mod": gomod, "main.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			return nil, err
		}
	}
	return bins, build(dir, ".", "facaderoots")
}

// facadeRoots generates the program that links the facade, type-checking
// repro/trustnet from source. Its references sit in a package-level []any
// that main reads, because a `_ =` reference is compiled away.
func facadeRoots() (string, error) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("repro/trustnet")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("package main\n\nimport (\n\t\"fmt\"\n\n\t\"repro/trustnet\"\n)\n\nvar roots = []any{\n")
	for _, name := range pkg.Scope().Names() {
		if !token.IsExported(name) {
			continue
		}
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Func, *types.Var:
			fmt.Fprintf(&b, "\ttrustnet.%s,\n", name)
		case *types.TypeName:
			recv, typ := "trustnet."+name, obj.Type()
			if !types.IsInterface(typ) {
				recv, typ = "(*"+recv+")", types.NewPointer(typ)
			}
			ms := types.NewMethodSet(typ)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					fmt.Fprintf(&b, "\t%s.%s,\n", recv, m.Name())
				}
			}
		}
	}
	b.WriteString("}\n\nfunc main() { fmt.Println(len(roots)) }\n")
	return b.String(), nil
}

// decl is one function or method declared in a non-test file.
type decl struct {
	key   string // import path, receiver type if any, name: repro/internal/pkg.Type.Method
	file  string // relative to the module root
	line  int
	lines int // from `func` to the closing brace
}

// declaredFuncs lists the functions and methods declared in the non-test
// Go files of the packages matching pattern, as go list selects them in
// dir: build constraints hold for this platform and testdata is skipped.
func declaredFuncs(dir, pattern string) ([]decl, error) {
	list, err := goCmd(dir, "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, pattern)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, line := range strings.Split(list, "\n") {
		fields := strings.Fields(line)
		for _, name := range fields[2:] {
			path := filepath.Join(fields[1], name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, _ := filepath.Rel(dir, path)
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := fields[0] + "." + fn.Name.Name
				if fn.Recv != nil {
					key = fields[0] + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				start, end := fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
				decls = append(decls, decl{key: key, file: rel, line: start, lines: end - start + 1})
			}
		}
	}
	return decls, nil
}

// recvName is the type name of a receiver: T, *T, T[K] or *T[K, V].
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name
}

// addSymbols marks linked the function keys of every text symbol in a
// `go tool nm` listing, "address type name" a line. The name runs to the
// end of the line, because generic shape names hold spaces.
func addSymbols(linked map[string]bool, nm string) {
	for _, line := range strings.Split(nm, "\n") {
		_, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
		if len(rest) < 3 || (rest[0] != 'T' && rest[0] != 't') || rest[1] != ' ' {
			continue
		}
		for _, key := range symbolKeys(rest[2:]) {
			linked[key] = true
		}
	}
}

// symbolKeys maps a text symbol to the function keys it proves linked. It
// drops type arguments ([...], nested) and (*T) receiver marks, cuts each
// name segment at '-' (M-fm method values), and returns every dotted prefix
// after the package path, so closures such as pkg.F.func1 count for pkg.F.
// No prefix names another function: a function and a type in one package
// cannot share a name.
func symbolKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, c := range []byte(sym) {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0 && c != '(' && c != ')' && c != '*':
			b.WriteByte(c)
		}
	}
	name := b.String()
	slash := strings.LastIndexByte(name, '/') + 1
	dot := strings.IndexByte(name[slash:], '.')
	if dot < 0 {
		return nil
	}
	key := name[:slash+dot]
	var keys []string
	for _, seg := range strings.Split(name[slash+dot+1:], ".") {
		seg, _, _ = strings.Cut(seg, "-")
		key += "." + seg
		keys = append(keys, key)
	}
	return keys
}

// readAllowlist returns the keys of the allowlist's entries, skipping blank
// lines and lines that start with '#'.
func readAllowlist(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []string
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", path, i+1, key)
		}
		keys = append(keys, key)
	}
	if len(keys) > maxAllowlist {
		return nil, fmt.Errorf("%s: %d entries, at most %d allowed", path, len(keys), maxAllowlist)
	}
	return keys, nil
}

// unlinked returns the declarations that are neither linked nor excused, in
// declaration order, and the allowlist keys that excuse nothing. A key
// excuses the function it names and everything declared under it.
func unlinked(decls []decl, linked map[string]bool, allow []string) (dead []decl, stale []string) {
	used := make(map[string]bool)
	for _, d := range decls {
		excused := linked[d.key]
		for _, key := range allow {
			if !excused && (d.key == key || strings.HasPrefix(d.key, key+".")) {
				excused, used[key] = true, true
			}
		}
		if !excused {
			dead = append(dead, d)
		}
	}
	for _, key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	return dead, stale
}
