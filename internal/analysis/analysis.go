package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass. The shape mirrors
// golang.org/x/tools/go/analysis so the passes could migrate to the real
// framework if the module ever grows the dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the trustlint
	// command line (each analyzer gets a -<name> bool flag).
	Name string
	// Doc is the analyzer's documentation; the first line is used as the
	// command-line flag usage string.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	waivers *WaiverIndex
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// SourceFiles returns the pass's non-test files. The determinism invariants
// concern shipped code; _test.go files that depend on ordering fail visibly
// on their own and are exempt from the trustlint analyzers.
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if !strings.HasSuffix(name, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// Waivers returns the pass's index of //trustlint: suppression comments,
// built lazily from all files of the package.
func (p *Pass) Waivers() *WaiverIndex {
	if p.waivers == nil {
		p.waivers = NewWaiverIndex(p.Fset, p.Files)
	}
	return p.waivers
}

// NewInfo returns a types.Info with every map the analyzers rely on
// allocated. Both the unitchecker driver and the test harness type-check
// through it so the two agree on what is recorded.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// deterministicPrefixes are the package trees whose output is golden-pinned
// to be bit-identical across shard counts, snapshot/restore boundaries and
// the served-vs-batch twin. A path matches if it equals a prefix or sits
// below one (so mechanism subpackages like repro/internal/reputation/\
// eigentrust are covered). The population packages, adversary, graph and
// social, are on it because the class assignment, the behaviour jitter, the
// generators' random draws and the friend order feed every history.
// Everything else — cmd/ (including trustmaster
// and trustworker), tools/, internal/serve, internal/cluster, the
// dht/crypto simulation scaffolding — is off the deterministic path
// and exempt. internal/cluster is exempt by design, not oversight: its job
// is wall-clock plumbing (deadlines, heartbeats, reconnects), and its
// determinism is enforced end-to-end by the golden topology tests instead
// of the lint allowlist.
var deterministicPrefixes = []string{
	"repro/internal/adversary",
	"repro/internal/core",
	"repro/internal/workload",
	"repro/internal/reputation",
	"repro/internal/linalg",
	"repro/internal/metrics",
	"repro/internal/sim",
	"repro/internal/satisfaction",
	"repro/internal/privacy",
	"repro/internal/graph",
	"repro/internal/social",
}

// IsDeterministic reports whether the import path lies inside the
// deterministic package allowlist policed by the trustlint analyzers.
func IsDeterministic(path string) bool {
	for _, prefix := range deterministicPrefixes {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}
