// Package unitchecker drives the trustlint analyzers under the `go vet
// -vettool` protocol, the same separate-compilation contract implemented by
// golang.org/x/tools/go/analysis/unitchecker (deliberately not imported so
// the module stays dependency-free).
//
// The go command invokes the tool three ways:
//
//	tool -flags            print the tool's analyzer flags as JSON
//	tool -V=full           print a version line for build caching
//	tool [flags] vet.cfg   analyze one package described by the JSON config
//
// The vet.cfg file (see cmd/go/internal/work.vetConfig) names the package's
// source files and maps each dependency's import path to a file containing
// gc export data, which go/importer can read directly — so full type
// information is available without loading any dependency source.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// config holds the fields of cmd/go/internal/work.vetConfig that the
// checker reads; decoding ignores the rest.
type config struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a vettool hosting the given analyzers. It does
// not return: it exits 0 on a clean run, 2 when diagnostics were reported,
// and 1 on driver errors.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.Bool(a.Name, true, doc)
	}
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	version := flag.String("V", "", "print version and exit (-V=full)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s: static analysis enforcing this repo's bit-identity invariants

Usage of %[1]s:
	%[1]s unit.cfg        # execute analysis specified by config file
	go vet -vettool=$(which %[1]s) ./...
Flags:
`, progname)
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *version != "":
		// The go command runs -V=full to derive a cache key; the line must
		// start with "<name> version" and should change with the binary.
		if *version != "full" {
			log.Fatalf("unsupported flag -V=%s", *version)
		}
		fmt.Printf("%s version devel buildID=%02x\n", progname, selfHash())
		os.Exit(0)
	case *printFlags:
		// JSON flag descriptions, queried by `go vet` before the run.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: doc})
		}
		data, err := json.Marshal(out)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
		os.Exit(1)
	}

	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	diags, err := run(args[0], active)
	if err != nil {
		log.Fatal(err)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
	os.Exit(0)
}

func selfHash() []byte {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return h.Sum(nil)[:8]
}

// run analyzes the package described by cfgFile and returns rendered
// diagnostics in position order.
func run(cfgFile string, analyzers []*analysis.Analyzer) ([]string, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// The go command expects the vetx (facts) output file to exist on
	// success. The trustlint analyzers are package-local and export no
	// facts, so an empty file satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	// Dependencies are vetted only for their facts; nothing to do.
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not a source import path.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(importPath)
	})

	var tcErrs []error
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
		Error:     func(err error) { tcErrs = append(tcErrs, err) },
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		for _, e := range tcErrs {
			log.Println(e)
		}
		return nil, fmt.Errorf("typecheck failures in %s", cfg.ImportPath)
	}

	type posDiag struct {
		pos token.Position
		msg string
	}
	var diags []posDiag
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, posDiag{
				pos: fset.Position(d.Pos),
				msg: fmt.Sprintf("[%s] %s", name, d.Message),
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s", d.pos, d.msg)
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
