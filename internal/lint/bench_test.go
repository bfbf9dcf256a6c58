package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkMosaiclintTree measures a full mosaiclint pass over the module —
// parallel load plus every per-package analyzer (the hotalloc build gate is
// excluded: it shells out to the compiler and is benchmarked by its wall
// clock in check.sh, not here), so analyzer additions pay for their cost
// visibly.
func BenchmarkMosaiclintTree(b *testing.B) {
	for b.Loop() {
		passes, err := Load([]string{"mosaic/..."})
		if err != nil {
			b.Fatal(err)
		}
		diags := RunAll(passes, All())
		if len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags)
		}
	}
}

// BenchmarkCallGraphBuild isolates the whole-program phase of a tree run:
// call-graph construction, Tarjan condensation, levelization, and the
// bottom-up fixpoint summaries — everything BuildProgram does after the
// packages are loaded. Load is hoisted out of the loop so the number is
// the marginal cost the fixpoint engine adds on top of the per-package
// analyzers.
func BenchmarkCallGraphBuild(b *testing.B) {
	passes, err := Load([]string{"mosaic/..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		BuildProgram(passes, 0)
	}
}

// BenchmarkCompilerGates measures the three compiler-introspection gates end
// to end — hotalloc, bcegate, inlinegate — including the `go build` each
// shells out to. On an unchanged tree the build cache replays the compiler's
// diagnostics, so this is the steady-state cost every check.sh run pays.
func BenchmarkCompilerGates(b *testing.B) {
	root, err := ModuleRoot()
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, _, err := RunHotAlloc(root, filepath.Join(root, EscapeBaselineFile), HotPathPackages); err != nil {
			b.Fatal(err)
		}
		if _, _, err := RunBCEGate(root, filepath.Join(root, BCEBaselineFile), HotPathPackages); err != nil {
			b.Fatal(err)
		}
		if _, _, err := RunInlineGate(root, filepath.Join(root, InlineBaselineFile)); err != nil {
			b.Fatal(err)
		}
	}
}
