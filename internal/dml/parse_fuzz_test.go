package dml

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDMLParse feeds raw bytes to the front end. DML text comes from
// outside the process (scripts, -e expressions), so every input must end in
// a parse error or in a program that optimizes and analyzes — never in a
// panic. The corpus is seeded with every shipped script and test fixture.
func FuzzDMLParse(f *testing.F) {
	var seeds []string
	for _, pat := range []string{"../../examples/dml_script/scripts/*.dml", "testdata/*.dml", "testdata/*/*.dml"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed scripts found")
	}
	for _, p := range seeds {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, s := range []string{
		"", "X[2:3, ]", "-(-X) ^ 2", "if (1 < 2) { a = 1 } else { a = 2 }",
		"for (i in 1:3) { w = w - 0.1 * t(X) %*% (sigmoid(X %*% w) - y) }",
		`Z = read("z.csv")`, "sum(X * Y + 1) / nrow(X)",
	} {
		f.Add([]byte(s))
	}
	shapes := map[string]Shape{
		"X": matShape(6, 3), "Y": matShape(6, 3), "y": matShape(6, 1),
		"w": matShape(3, 1), "s": scalarShape(),
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := Parse(string(src))
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned neither a program nor an error", src)
		}
		for _, sh := range []map[string]Shape{nil, shapes} {
			o := p.Optimize(sh)
			if o == nil {
				t.Fatalf("Optimize of %q returned nil", src)
			}
			o.Analyze(sh)
		}
	})
}
