package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nm is a synthetic `go tool nm` listing for the fixture: a closure, a
// method-value wrapper, value and pointer receivers, generic instantiations
// whose shape names hold spaces, and symbols that are not text.
const nm = `  4a1000 T fixture/x.F
  4a1020 T fixture/x.F.func1
  4a1040 T fixture/x.T.V
  4a1060 T fixture/x.(*T).P
  4a1080 t fixture/x.(*T).N-fm
  4a10a0 T fixture/x.(*Set[go.shape.struct { A int; B []string }]).Add
  4a10c0 T fixture/x.Pair[go.shape.int,go.shape.map[string]int].Swap
  4a10e0 T fixture/x.Map[go.shape.string,go.shape.interface { M() }]
  5b0000 D fixture/x.Dead
  5b0020 R fixture/x..dict.Map[string,int]
`

func TestSymbolKeys(t *testing.T) {
	for sym, want := range map[string][]string{
		"fixture/x.F.func1":                                  {"fixture/x.F", "fixture/x.F.func1"},
		"fixture/x.(*T).P":                                   {"fixture/x.T", "fixture/x.T.P"},
		"fixture/x.(*T).N-fm":                                {"fixture/x.T", "fixture/x.T.N"},
		"fixture/x.(*T).M.gowrap2":                           {"fixture/x.T", "fixture/x.T.M", "fixture/x.T.M.gowrap2"},
		"fixture/x.Map[go.shape.[]int]":                      {"fixture/x.Map"},
		"fixture/x.(*Set[go.shape.struct { A [2]int }]).Add": {"fixture/x.Set", "fixture/x.Set.Add"},
		// A shape name holds spaces and other packages' paths.
		"r/p.(*Rows[go.shape.struct { r/p.sat int32; r/q.x int }]).All.func1": {"r/p.Rows", "r/p.Rows.All", "r/p.Rows.All.func1"},
		"a/b.c/d.F": {"a/b.c/d.F"},
		"runtime":   nil,
	} {
		if got := symbolKeys(sym); !reflect.DeepEqual(got, want) {
			t.Errorf("symbolKeys(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestFixtureDeadFunction(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	decls, err := declaredFuncs(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range decls {
		keys = append(keys, d.key)
	}
	want := []string{"fixture/x.F", "fixture/x.T.V", "fixture/x.T.P", "fixture/x.T.N",
		"fixture/x.Set.Add", "fixture/x.Pair.Swap", "fixture/x.Map", "fixture/x.Dead"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("declared %q, want %q (init, _, test files and ignored files skipped)", keys, want)
	}
	linked := make(map[string]bool)
	addSymbols(linked, nm)
	dead, stale := unlinked(decls, linked, nil)
	if len(dead) != 1 || dead[0].key != "fixture/x.Dead" || dead[0].lines != 2 || len(stale) != 0 {
		t.Fatalf("unlinked = %+v, stale %q; want only fixture/x.Dead, 2 lines", dead, stale)
	}
	if d := dead[0]; d.file != filepath.Join("x", "x.go") || d.line != 38 {
		t.Fatalf("Dead reported at %s:%d", d.file, d.line)
	}
	// An entry excuses the function it names or everything under a package;
	// an entry that excuses nothing is stale.
	for _, tc := range []struct {
		allow []string
		dead  int
		stale []string
	}{
		{[]string{"fixture/x.Dead"}, 0, nil},
		{[]string{"fixture/x"}, 0, nil},
		{[]string{"fixture/x.F"}, 1, []string{"fixture/x.F"}},
		{[]string{"fixture/xy"}, 1, []string{"fixture/xy"}},
	} {
		dead, stale := unlinked(decls, linked, tc.allow)
		if len(dead) != tc.dead || !reflect.DeepEqual(stale, tc.stale) {
			t.Errorf("allow %q: %d dead, stale %q; want %d, %q", tc.allow, len(dead), stale, tc.dead, tc.stale)
		}
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		path := filepath.Join(dir, "allowlist.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	keys, err := readAllowlist(write("# comment\n\nrepro/internal/a.F reason one\nrepro/internal/b  reason two\n"))
	if err != nil || !reflect.DeepEqual(keys, []string{"repro/internal/a.F", "repro/internal/b"}) {
		t.Fatalf("keys %q, err %v", keys, err)
	}
	if _, err := readAllowlist(write("repro/internal/a.F\n")); err == nil {
		t.Fatal("entry without a reason accepted")
	}
	if _, err := readAllowlist(write(strings.Repeat("repro/internal/a.F why\n", maxAllowlist+1))); err == nil {
		t.Fatalf("%d entries accepted", maxAllowlist+1)
	}
}
