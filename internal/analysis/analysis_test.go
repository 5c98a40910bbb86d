package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/core", true},
		{"repro/internal/core/fixture", true},
		{"repro/internal/reputation/eigentrust", true},
		{"repro/internal/linalg", true},
		{"repro/internal/graph", true},
		{"repro/internal/social", true},
		// Prefix matching must not swallow sibling packages that merely
		// share a name prefix.
		{"repro/internal/corelike", false},
		{"repro/internal/serve", false},
		{"repro/internal/cluster", false},
		{"repro/cmd/trustnetd", false},
		{"repro/cmd/trustmaster", false},
		{"repro/cmd/trustworker", false},
		{"repro/tools/benchjson", false},
		{"repro/tools/benchdiff", false},
		{"fmt", false},
	}
	for _, c := range cases {
		if got := IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestWaiverIndex(t *testing.T) {
	const src = `package p

var a int //trustlint:derived rebuilt on restore

//trustlint:ordered reason above the line
var b int

var c int //trustlint:derived

var d int // plain comment, not a waiver
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "w.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewWaiverIndex(fset, []*ast.File{f})

	posOn := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}

	if w, ok := ix.At(posOn(3), WaiverDerived); !ok || w.Reason != "rebuilt on restore" {
		t.Errorf("trailing waiver on line 3: got (%+v, %v)", w, ok)
	}
	if _, ok := ix.At(posOn(6), WaiverOrdered); !ok {
		t.Errorf("line-above waiver covering line 6: not found")
	}
	if w, ok := ix.At(posOn(8), WaiverDerived); !ok || w.Reason != "" {
		t.Errorf("reasonless waiver on line 8: got (%+v, %v)", w, ok)
	}
	if _, ok := ix.At(posOn(10), WaiverDerived); ok {
		t.Errorf("plain comment on line 10 must not parse as a waiver")
	}
	// Kind mismatch: an ordered waiver does not cover a derived query.
	if _, ok := ix.At(posOn(3), WaiverOrdered); ok {
		t.Errorf("derived waiver on line 3 must not satisfy an ordered query")
	}
}
