package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmml/internal/dml"
	"dmml/internal/la"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func lint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runLint(args, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

func TestLintCleanFixture(t *testing.T) {
	code, out := lint(t, "-strict", "testdata/clean.dml")
	if code != 0 || out != "" {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestLintBadFixture(t *testing.T) {
	code, out := lint(t, "testdata/bad.dml")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "testdata/bad.dml:4:7: error[dim-mismatch]") {
		t.Fatalf("diagnostic missing path:line:col anchor:\n%s", out)
	}
}

func TestLintParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.dml")
	writeFile(t, path, "x = (1\n")
	code, out := lint(t, path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, path+":1:") {
		t.Fatalf("parse diagnostic not anchored on the file:\n%s", out)
	}
}

func TestLintMissingFile(t *testing.T) {
	if code, _ := lint(t, "no/such/file.dml"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code, _ := lint(t); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
}

// Every DML script shipped under examples/ must lint completely clean, even
// under -strict.
func TestLintExampleScripts(t *testing.T) {
	scripts, err := filepath.Glob("../../examples/*/scripts/*.dml")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no example scripts found")
	}
	for _, s := range scripts {
		code, out := lint(t, "-strict", s)
		if code != 0 {
			t.Errorf("%s: exit %d:\n%s", s, code, out)
		}
	}
}

// TestFuseFlag: -fuse=compile fuses, -fuse=off does not, and any other
// value — the retired interp among them — fails naming the valid modes.
func TestFuseFlag(t *testing.T) {
	prog, err := dml.Parse("y = sigmoid(X * 2 + 1) * X")
	if err != nil {
		t.Fatal(err)
	}
	shapes := dml.ShapesFromEnv(dml.Env{"X": dml.Matrix(la.NewDense(4, 3))})
	for mode, regions := range map[string]int{"compile": 1, "off": 0} {
		optimize, err := fuseOptimizer(mode)
		if err != nil {
			t.Fatalf("-fuse=%s: %v", mode, err)
		}
		if n := optimize(prog, shapes).FusedRegionCount(); n != regions {
			t.Errorf("-fuse=%s: %d fused regions, want %d", mode, n, regions)
		}
	}
	for _, mode := range []string{"interp", "", "compiled"} {
		_, err := fuseOptimizer(mode)
		if err == nil || !strings.Contains(err.Error(), "want compile or off") {
			t.Errorf("-fuse=%q: error %v, want one listing compile and off", mode, err)
		}
	}
}
