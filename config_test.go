package esds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"esds/internal/core"
)

// TestShippedConfiguration pins esds.New to internal/core's table of
// shipped values, and that table to the constants the benchmark measures
// (benchmark/deploy.go, read as source: the benchmark is its own module).
// esds-server's side is pinned by its own TestShippedConfiguration.
func TestShippedConfiguration(t *testing.T) {
	for _, tc := range []struct {
		shards int
		want   core.Options
	}{
		{0, core.DefaultOptions()},
		{1, core.DefaultOptions()},
		{4, core.BatchedOptions()},
	} {
		opt, gossip, err := configure(Config{Replicas: 3, DataType: Counter(), Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if opt != tc.want || gossip != core.GossipInterval {
			t.Errorf("Shards %d: New runs %+v, gossip %v; want %+v, gossip %v", tc.shards, opt, gossip, tc.want, core.GossipInterval)
		}
	}

	bench := deployConstants(t, "benchmark/deploy.go")
	batched := core.BatchedOptions()
	for name, want := range map[string]int64{
		"gossipInterval":     int64(core.GossipInterval),
		"retransmitInterval": int64(core.RetransmitInterval),
		"batchSize":          int64(batched.BatchSize),
		"batchDelay":         int64(batched.BatchDelay),
	} {
		got, ok := bench[name]
		if !ok {
			t.Errorf("benchmark/deploy.go declares no constant %s", name)
		} else if got != want {
			t.Errorf("benchmark measures %s = %d, the shipped table has %d", name, got, want)
		}
	}
}

// deployConstants evaluates the top-level constants of a Go file whose
// values are integer literals, time units, or products of those.
func deployConstants(t *testing.T, path string) map[string]int64 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]time.Duration{
		"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond,
		"Millisecond": time.Millisecond, "Second": time.Second,
	}
	var eval func(ast.Expr) (int64, bool)
	eval = func(e ast.Expr) (int64, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			n, err := strconv.ParseInt(e.Value, 0, 64)
			return n, err == nil
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "time" {
				u, ok := units[e.Sel.Name]
				return int64(u), ok
			}
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.BinaryExpr:
			x, okx := eval(e.X)
			y, oky := eval(e.Y)
			if okx && oky && e.Op == token.MUL {
				return x * y, true
			}
		}
		return 0, false
	}
	out := make(map[string]int64)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if v, ok := eval(vs.Values[i]); ok {
						out[name.Name] = v
					}
				}
			}
		}
	}
	return out
}
