package skalla

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunListsNameExistingTests: every alternative of every -run regex in
// the CI workflow matches a Test or Example function of this module. go test
// -run passes silently on a name that matches none, so a renamed or deleted
// test would drop out of CI unnoticed ('^$', which runs none on purpose,
// aside).
func TestCIRunListsNameExistingTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Example)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "tools" || path == "benchmark" || d.Name() == "testdata"):
			return filepath.SkipDir // other modules, and fuzz corpora
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lists := regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(ci), -1)
	if len(lists) == 0 || len(names) == 0 {
		t.Fatalf("found %d -run lists and %d test functions", len(lists), len(names))
	}
	for _, list := range lists {
		if list[1] == "^$" {
			continue
		}
		for _, alt := range strings.Split(list[1], "|") {
			if re, err := regexp.Compile(alt); err != nil || !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no Test or Example function", alt)
			}
		}
	}
}
