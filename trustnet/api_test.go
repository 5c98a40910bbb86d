package trustnet

import (
	"go/importer"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// productList returns the identifiers DESIGN.md names, in backquotes, in
// its facade product list: the first bulleted list under the
// "### The product surface" heading, up to its first blank line.
func productList(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### The product surface\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### The product surface" heading`)
	}
	start := strings.Index(section, "\n- ")
	if start < 0 {
		t.Fatal("DESIGN.md's product surface has no list")
	}
	list := section[start+1:]
	if end := strings.Index(list, "\n\n"); end >= 0 {
		list = list[:end]
	}
	names := make(map[string]bool)
	for _, m := range regexp.MustCompile("`([A-Z][A-Za-z0-9]*)`").FindAllStringSubmatch(list, -1) {
		names[m[1]] = true
	}
	return names
}

// TestFacadeSurfaceIsTheProductList pins the exported surface of trustnet
// to DESIGN.md's product list, both ways: every exported package-level
// identifier must be listed, and every listed identifier must exist. It
// type-checks the package from source, as tools/deadcode does for its
// facade root.
func TestFacadeSurfaceIsTheProductList(t *testing.T) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("repro/trustnet")
	if err != nil {
		t.Fatal(err)
	}
	listed := productList(t)
	exported := make(map[string]bool)
	for _, name := range pkg.Scope().Names() {
		if !token.IsExported(name) {
			continue
		}
		exported[name] = true
		if !listed[name] {
			t.Errorf("trustnet exports %s, which DESIGN.md's product list does not name", name)
		}
	}
	for name := range listed {
		if !exported[name] {
			t.Errorf("DESIGN.md's product list names %s, which trustnet does not export", name)
		}
	}
}
