package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Layers in report order. "runtime" takes profile samples with no frame in
// module evm: GC workers, the scheduler, the netpoller, and the
// benchmark's own load generator.
var reportLayers = []string{
	"sim", "radio", "rtlink", "core", "wire", "gateway", "plant", "control",
	"vm", "rtos", "span", "evmd", "federation", "ota", "invariants", "runner",
	"runtime",
}

// toolsLayer holds packages that are never linked into the benchmark
// (linters, commands, examples). Any profile share charged to it means
// the map is wrong, so its share must read 0.
const toolsLayer = "tools"

// packageLayers maps each package directory of module evm to its layer.
// A trailing "/..." also matches every subdirectory. Every package must
// match exactly one rule (checkLayerMap).
var packageLayers = []struct{ dir, layer string }{
	{"internal/sim", "sim"},
	{"internal/radio", "radio"},
	{"internal/rtlink", "rtlink"},
	{"internal/mac", "rtlink"},
	{"internal/core", "core"},
	{"internal/wire", "wire"},
	{"internal/gateway", "gateway"},
	{"internal/modbus", "gateway"},
	{"internal/plant", "plant"},
	{"internal/control", "control"},
	{"internal/vm", "vm"},
	{"internal/rtos", "rtos"},
	{"internal/span", "span"},
	{"internal/trace", "span"},
	{"internal/bqp", "federation"},
	{"evmd", "evmd"},
	// fuzz builds generated scenarios (random-field-multihop is one of
	// the registered scenarios) and sweeps them through the Runner.
	{"fuzz", "runner"},
	{"internal/lint/...", toolsLayer},
	{"cmd/...", toolsLayer},
	{"examples/...", toolsLayer},
}

// rootFileLayers maps the root package's files to layers by name pattern
// (path.Match syntax). Every non-test file must match exactly one.
var rootFileLayers = []struct{ pattern, layer string }{
	{"federation.go", "federation"},
	{"backbone.go", "federation"},
	{"policy.go", "federation"},
	{"ota.go", "ota"},
	{"invariants.go", "invariants"},
	{"runner.go", "runner"},
	{"registry.go", "runner"},
	{"scenario*.go", "runner"},
	{"evm.go", "runner"},
	{"events.go", "runner"},
	{"faultplan.go", "runner"},
	{"topology.go", "runner"},
	{"tracing.go", "span"},
}

func matchDir(rule, dir string) bool {
	if base, ok := strings.CutSuffix(rule, "/..."); ok {
		return dir == base || strings.HasPrefix(dir, base+"/")
	}
	return dir == rule
}

// dirLayer returns the layer of a package directory (relative to the
// module root, slash-separated) and how many rules matched it.
func dirLayer(dir string) (string, int) {
	layer, n := "", 0
	for _, r := range packageLayers {
		if matchDir(r.dir, dir) {
			layer, n = r.layer, n+1
		}
	}
	return layer, n
}

// rootFileLayer returns the layer of a root-package file and how many
// rules matched it.
func rootFileLayer(name string) (string, int) {
	layer, n := "", 0
	for _, r := range rootFileLayers {
		if ok, _ := filepath.Match(r.pattern, name); ok {
			layer, n = r.layer, n+1
		}
	}
	return layer, n
}

// checkLayerMap walks the module rooted at root and checks that every
// package directory and every non-test root-package file maps to exactly
// one layer, so a new file cannot land in an unnamed bucket and the
// per-layer shares always sum to 100%.
func checkLayerMap(root string) error {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, such as this benchmark
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		dir, file := filepath.Split(rel)
		dir = strings.TrimSuffix(dir, "/")
		var n int
		if dir == "" {
			_, n = rootFileLayer(file)
		} else {
			_, n = dirLayer(dir)
		}
		if n != 1 {
			problems = append(problems, fmt.Sprintf("%s matches %d layer rules", rel, n))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("layer map self-test: %w", err)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("layer map self-test: %s", strings.Join(problems, "; "))
	}
	return nil
}

// frameLayer attributes one profile frame. ok is false for frames outside
// module evm. Root-package frames are attributed by source file; compiler
// generated wrappers ("<autogenerated>") count as runner.
func frameLayer(fn, file string) (layer string, ok bool) {
	name := fn
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation suffix
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "evm":
		if l, n := rootFileLayer(filepath.Base(file)); n == 1 {
			return l, true
		}
		return "runner", true
	case strings.HasPrefix(pkg, "evm/"):
		if l, n := dirLayer(pkg[len("evm/"):]); n == 1 {
			return l, true
		}
		return toolsLayer, true
	}
	return "", false
}
