package arkfs

import (
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
	"sort"
	"strings"
	"testing"
)

// optionSuffixes name the configuration types the census counts.
var optionSuffixes = []string{"Options", "Config", "Policy", "Limits"}

// optionsWithoutCaller lists each option field that no non-test code outside
// the file declaring it sets, with the reason it stays a field. A field not
// listed here needs a second caller with a second value, or it is a constant.
var optionsWithoutCaller = map[string]string{
	"baseline/cephsim.ClusterOptions.DeleteSlowCost": calibration,
	"baseline/cephsim.ClusterOptions.DeleteSlowProb": calibration,
	"baseline/cephsim.ClusterOptions.SlowPathCost":   calibration,
	"baseline/marfssim.Options.MetadataNodes":        calibration,
	"baseline/marfssim.Options.ServiceTime":          calibration,
	"baseline/marfssim.Options.Name":                 "a deployment's address prefix; DefaultOptions takes it from its caller",
	"harness.CephOptions.CacheEntries":               calibration,
	"harness.CephOptions.ChunkSize":                  calibration,
	"core.Options.TraceCap":                          "the trace tests need a 2048-span ring; deployments use 256",
	"harness.BenchConfig.FioFileSize":                tierOneSizes,
	"harness.BenchConfig.ShardedClients":             tierOneSizes,
	"harness.BenchConfig.ShardedDirs":                tierOneSizes,
	"harness.BenchConfig.ShardedFilesPerDir":         tierOneSizes,
	"harness.BenchConfig.Shards":                     tierOneSizes,
	"harness.BenchConfig.TakeoverEntries":            tierOneSizes,
	"harness.StatsConfig.Clients":                    tierOneSizes,
	"harness.StatsConfig.FilesPerProc":               tierOneSizes,
	"harness.StatsConfig.SharedDirs":                 tierOneSizes,
	"harness.ChaosConfig.LeaseShards":                "CI's TestChaosResharding runs the sharded lease-manager variant",
}

const (
	calibration  = "a model parameter the calibration may retune (ROADMAP 2(c))"
	tierOneSizes = "the tests run the same code at a smaller size to keep tier 1 fast"
)

// TestEveryOptionHasACaller type-checks every package's non-test files and
// fails on an exported field of an *Options, *Config, *Policy or *Limits
// type that no non-test code outside its own file sets, as a
// composite-literal key or an assignment target, unless the allowlist above
// gives its reason. It also fails on an allowlist entry that is stale, and on
// a field that no non-test code reads.
func TestEveryOptionHasACaller(t *testing.T) {
	fields, noCaller, unread := optionCensus(t)
	t.Logf("options: %d fields, %d without a caller outside their file", len(fields), len(noCaller))
	for _, f := range unread {
		t.Errorf("%s: no code reads it; delete it", f)
	}
	for _, f := range noCaller {
		if _, ok := optionsWithoutCaller[f]; !ok {
			t.Errorf("%s: no caller sets it; make it a constant, or list it with its reason", f)
		}
	}
	without := make(map[string]bool, len(noCaller))
	for _, f := range noCaller {
		without[f] = true
	}
	for f := range optionsWithoutCaller {
		if !without[f] {
			t.Errorf("%s: listed without a caller, but it has one or is gone; drop it from the list", f)
		}
	}
}

// goPackage is the part of `go list -json` output the census reads.
type goPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// optionCensus returns every counted field as "pkg.Type.Field", sorted,
// those without a caller and those nothing reads.
func optionCensus(t *testing.T) (fields, noCaller, unread []string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p goPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard && !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})

	declFile := map[string]string{} // field -> file that declares it
	setOutside := map[string]bool{}
	read := map[string]bool{}
	var sets []struct{ field, file string }
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !isOptionType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declFile[optionKey(pkg, name, f.Name())] = fset.Position(f.Pos()).Filename
				}
			}
		}
		for _, f := range files {
			file := fset.Position(f.Pos()).Filename
			record := func(owner types.Type, field string) {
				if k := fieldKey(owner, field); k != "" {
					sets = append(sets, struct{ field, file string }{k, file})
				}
			}
			assigned := map[*ast.SelectorExpr]bool{} // targets of a plain =
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !assigned[n] {
						if k := fieldKey(fieldOwner(s), n.Sel.Name); k != "" {
							read[k] = true
						}
					}
				case *ast.CompositeLit:
					tv, ok := info.Types[n]
					if !ok {
						break
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
									record(tv.Type, id.Name)
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
								record(fieldOwner(s), sel.Sel.Name)
								assigned[sel] = n.Tok == token.ASSIGN
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, s := range sets {
		if d, ok := declFile[s.field]; ok && d != s.file {
			setOutside[s.field] = true
		}
	}
	for f := range declFile {
		fields = append(fields, f)
		if !setOutside[f] {
			noCaller = append(noCaller, f)
		}
		if !read[f] {
			unread = append(unread, f)
		}
	}
	sort.Strings(fields)
	sort.Strings(noCaller)
	sort.Strings(unread)
	return fields, noCaller, unread
}

func isOptionType(name string) bool {
	for _, s := range optionSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// fieldOwner is the struct type that declares the field a selection picks,
// following any embedded fields on the way.
func fieldOwner(s *types.Selection) types.Type {
	typ := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(typ).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		typ = st.Field(i).Type()
	}
	return typ
}

// fieldKey names field of owner as "pkg.Type.Field", or "" when owner is not
// a named type.
func fieldKey(owner types.Type, field string) string {
	if owner == nil {
		return ""
	}
	named, ok := deref(owner).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return optionKey(named.Obj().Pkg(), named.Obj().Name(), field)
}

// optionKey names a field as the allowlist does: "pkg.Type.Field", the
// package path relative to internal/.
func optionKey(pkg *types.Package, typeName, field string) string {
	return strings.TrimPrefix(pkg.Path(), "arkfs/internal/") + "." + typeName + "." + field
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
