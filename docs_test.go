package irn_test

import (
	"os"
	"regexp"
	"testing"
)

// TestDocsNameExistingPaths keeps README.md and ARCHITECTURE.md honest
// across deletions: every back-ticked span outside a code fence that is
// exactly a repo path — under cmd/, scripts/, internal/, examples/ or
// benchmark/, or a root-level .md/.json/.go file — must exist.
func TestDocsNameExistingPaths(t *testing.T) {
	var (
		fence = regexp.MustCompile("(?s)```.*?```")
		span  = regexp.MustCompile("`([^`\n]+)`")
		path  = regexp.MustCompile(`^((cmd|scripts|internal|examples|benchmark)/[\w./-]*|[\w.-]+\.(md|json|go))$`)
	)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range span.FindAllSubmatch(fence.ReplaceAll(text, nil), -1) {
			p := string(m[1])
			if !path.MatchString(p) {
				continue
			}
			checked++
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names `%s`, which does not exist", doc, p)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no repo path found; the scan is broken", doc)
		}
	}
}
