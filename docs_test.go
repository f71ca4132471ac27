package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that describe the system as it is. CHANGES.md
// and EXPERIMENTS.md are history and may name what is gone.
var docFiles = []string{"README.md", "DESIGN.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}

// docBudgets caps the length of the two documents a reader starts from.
var docBudgets = map[string]int{"DESIGN.md": 600, "README.md": 605}

// repoRoots are Go source roots a document may point into. A path under one
// of them is checked even when the root itself is absent, so a pointer into a
// deleted root fails; a path under any other existing top-level entry is
// checked too.
var repoRoots = map[string]bool{"internal": true, "cmd": true, "benchmark": true, "examples": true}

var (
	fenceRe   = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	spanRe    = regexp.MustCompile("`([^`]+)`")
	testRe    = regexp.MustCompile(`(\^?)\b((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_{},]*)(\*?)`)
	funcRe    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	designRe  = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	sectionRe = regexp.MustCompile(`§(\d+)`)
	headingRe = regexp.MustCompile(`(?m)^## (\d+)\. `)
	lineRefRe = regexp.MustCompile(`:\d[\d,\-]*$`)
)

// TestDocsResolve keeps the documents true to the tree: every backticked
// repository path exists, every backticked test, fuzz target, benchmark or
// example names a func of some _test.go (a Name* or ^Name pattern, or a name
// inside a command, matches at least one by prefix), every DESIGN §N
// reference — in the documents and in any .go file — names a numbered
// heading of DESIGN.md, and DESIGN.md and README.md stay within their line
// budgets.
func TestDocsResolve(t *testing.T) {
	var funcs, goFiles []string
	bases := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		bases[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcRe.FindAllStringSubmatch(string(src), -1) {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	checkRefs := func(name, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
			if n := text[m[2]:m[3]]; !sections[n] {
				t.Errorf("%s:%d: DESIGN §%s is not a heading of DESIGN.md", name, lineOf(text, m[0]), n)
			}
		}
	}
	checkRefs("DESIGN.md", string(design), sectionRe)

	for _, name := range docFiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if max, ok := docBudgets[name]; ok {
			if n := strings.Count(text, "\n"); n > max {
				t.Errorf("%s is %d lines, over its budget of %d", name, n, max)
			}
		}
		checkRefs(name, text, designRe)
		// Blank out fenced blocks, keeping their newlines so lines still count.
		text = fenceRe.ReplaceAllStringFunc(text, func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, m := range spanRe.FindAllStringSubmatchIndex(text, -1) {
			span, line := text[m[2]:m[3]], lineOf(text, m[0])
			command := strings.ContainsAny(span, " \t\n")
			for _, tok := range strings.Fields(span) {
				if p, ok := repoPath(tok); ok && !pathExists(p, bases) {
					t.Errorf("%s:%d: `%s` names %s, which does not exist", name, line, span, p)
				}
			}
			for _, tm := range testRe.FindAllStringSubmatch(span, -1) {
				prefix := command || tm[1] != "" || tm[3] != ""
				for _, want := range expandBraces(tm[2]) {
					if !prefix && (want == "Test" || want == "Fuzz" || want == "Benchmark" || want == "Example") {
						continue // the word, not a name
					}
					if !funcExists(funcs, want, prefix) {
						t.Errorf("%s:%d: `%s` names %s, which no _test.go defines", name, line, span, want)
					}
				}
			}
		}
	}
	for _, name := range goFiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checkRefs(name, string(src), designRe)
	}
}

func lineOf(text string, off int) int { return 1 + strings.Count(text[:off], "\n") }

// repoPath reports the repository path a token of a backticked span names,
// if it names one: a ./-relative path, a path under one of repoRoots or an
// existing top-level entry, or a bare .go, .md, .json or .yml file name. A
// trailing :line reference is dropped.
func repoPath(tok string) (string, bool) {
	tok = strings.Trim(tok, `'"(),;`)
	tok = strings.TrimRight(tok, ".:")
	if tok == "" || strings.Contains(tok, "://") || strings.ContainsAny(tok[:1], "/~$-<_*") {
		return "", false
	}
	tok = lineRefRe.ReplaceAllString(tok, "")
	explicit := strings.HasPrefix(tok, "./")
	tok = strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "...")
	tok = strings.TrimSuffix(tok, "/")
	if tok == "" {
		return ".", explicit
	}
	if explicit {
		return tok, true
	}
	first, _, nested := strings.Cut(tok, "/")
	if nested {
		if _, err := os.Stat(first); err == nil || repoRoots[first] {
			return tok, true
		}
		return "", false
	}
	switch filepath.Ext(tok) {
	case ".go", ".md", ".json", ".yml":
		return tok, true
	}
	return "", false
}

// pathExists reports whether p, after brace expansion, matches a file or
// directory; a bare file name may sit anywhere in the tree.
func pathExists(p string, bases map[string]bool) bool {
	for _, alt := range expandBraces(p) {
		if !strings.Contains(alt, "/") && !strings.ContainsAny(alt, "*?[") {
			if !bases[alt] {
				if _, err := os.Stat(alt); err != nil {
					return false
				}
			}
			continue
		}
		if ms, _ := filepath.Glob(alt); len(ms) == 0 {
			return false
		}
	}
	return true
}

// expandBraces expands one level of {a,b} alternation, repeatedly.
func expandBraces(s string) []string {
	i := strings.Index(s, "{")
	j := strings.Index(s, "}")
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}

func funcExists(funcs []string, name string, prefix bool) bool {
	for _, f := range funcs {
		if f == name || prefix && strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}
