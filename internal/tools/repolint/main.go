// Command repolint enforces repo-local documentation hygiene that the
// standard Go toolchain does not check, without any external
// dependency:
//
//   - every Go package (including main packages) carries a package doc
//     comment, so `go doc` is never empty and godoc renders usefully;
//   - every relative link in the repo's Markdown files resolves to a
//     file that exists, so docs don't rot as files move;
//   - every link anchor — in-page (#section) or cross-file
//     (FILE.md#section) — matches a heading in the target file, using
//     GitHub's heading-to-anchor slug rules, so section links don't rot
//     as headings are reworded;
//   - every repo-root package path a Markdown file names, internal/<x>
//     or cmd/<x>, is a directory that exists, so docs don't keep naming
//     a package after it is merged or deleted. CHANGES.md and ROADMAP.md
//     record history, ISSUE.md describes a change under way (which may
//     remove the packages it names) and SNIPPETS.md quotes other
//     repositories, so they are exempt;
//   - every `make <target>` a Markdown file names, outside the same
//     exempt files, is a target the root Makefile defines, so docs
//     don't keep naming a target after it is deleted;
//   - every `pkg.Ident` a Markdown file names in a code span, outside
//     the same exempt files, with pkg a directory under internal/ and
//     Ident exported, is declared by that package, so docs don't keep
//     naming a type or function after it is renamed or deleted;
//   - DESIGN.md is at most 600 lines, so a change that adds to it
//     removes at least as much;
//   - a CHANGES.md entry ("- PR <n>" and its indented lines) for PR 46
//     or later is at most 3 000 characters: it keeps what changed and
//     why, and the narration goes to the commit message.
//
// Usage: go run ./internal/tools/repolint [root]
//
// It exits non-zero listing every violation; CI and `make lint` run it.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkPackageDocs(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkStalePaths(root)...)
	problems = append(problems, checkMakeTargets(root)...)
	problems = append(problems, checkIdents(root)...)
	problems = append(problems, checkDesignLength(root)...)
	problems = append(problems, checkChangesEntries(root)...)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("repolint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("repolint: ok")
}

// skipDir reports directories no check should descend into.
func skipDir(name string) bool {
	switch name {
	case ".git", "testdata", "vendor", "node_modules":
		return true
	}
	return false
}

// checkPackageDocs walks every directory containing non-test Go files
// and requires at least one of them to carry a package doc comment.
func checkPackageDocs(root string) []string {
	byDir := make(map[string]bool) // dir -> has package doc
	seen := make(map[string]bool)  // dir -> has non-test go files
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		// Doc comments only; skipping function bodies keeps this fast.
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return nil // the compiler reports real syntax errors
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			byDir[dir] = true
		}
		return nil
	})
	var problems []string
	for dir := range seen {
		if !byDir[dir] {
			problems = append(problems, fmt.Sprintf("%s: package has no doc comment in any file", dir))
		}
	}
	return problems
}

// mdLink matches inline Markdown links and images: [text](target).
// Reference-style links and autolinks are rare in this repo and not
// checked.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// walkMarkdown calls fn with the path and content of every Markdown
// file under root.
func walkMarkdown(root string, fn func(path string, data []byte)) {
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(path), ".md") {
			return nil
		}
		if data, rerr := os.ReadFile(path); rerr == nil {
			fn(path, data)
		}
		return nil
	})
}

// checkMarkdownLinks verifies every relative link target in every
// tracked Markdown file points at an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	walkMarkdown(root, func(path string, data []byte) {
		slugs := newSlugCache()
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if bad, reason := badLink(path, target, slugs); bad {
					problems = append(problems, fmt.Sprintf("%s:%d: link %q: %s", path, i+1, target, reason))
				}
			}
		}
	})
	return problems
}

// pkgPath matches a repo-root package path, internal/<x> or cmd/<x>,
// that does not continue a longer path: ./internal/x counts, but
// another repository's labs/kademlia/cmd/cli does not.
var pkgPath = regexp.MustCompile(`(?:^|[^\w./-]|\./)((?:internal|cmd)/[\w-]+)`)

// pathExempt lists the Markdown files, relative to the root, that may
// name packages which no longer exist (see the package doc).
var pathExempt = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "SNIPPETS.md": true, "ISSUE.md": true}

// checkStalePaths reports every internal/<x> or cmd/<x> a Markdown
// file names for which root has no such directory.
func checkStalePaths(root string) []string {
	var problems []string
	walkMarkdown(root, func(path string, data []byte) {
		if rel, err := filepath.Rel(root, path); err == nil && pathExempt[filepath.ToSlash(rel)] {
			return
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range pkgPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
					problems = append(problems, fmt.Sprintf("%s:%d: %s: no such package directory", path, i+1, m[1]))
				}
			}
		}
	})
	return problems
}

var (
	// makeRef matches a make invocation quoted in Markdown: `make <target>`.
	makeRef = regexp.MustCompile("`make ([\\w.-]+)")
	// makeRule matches a rule line of a Makefile, "<target>:" at the
	// start of a line, and not a ":=" assignment.
	makeRule = regexp.MustCompile(`(?m)^([\w.-]+)\s*:([^=]|$)`)
)

// checkMakeTargets reports every `make <target>` a Markdown file names
// for which the root Makefile defines no rule. A missing Makefile
// defines none.
func checkMakeTargets(root string) []string {
	makefile, _ := os.ReadFile(filepath.Join(root, "Makefile"))
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	var problems []string
	walkMarkdown(root, func(path string, data []byte) {
		if rel, err := filepath.Rel(root, path); err == nil && pathExempt[filepath.ToSlash(rel)] {
			return
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range makeRef.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: make %s: no such Makefile target", path, i+1, m[1]))
				}
			}
		}
	})
	return problems
}

var (
	// codeSpan matches a Markdown code span on one line.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// identRef matches pkg.Ident, Ident exported, that does not continue
	// a selector: x.node.Handle names no package node.
	identRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// checkIdents reports every `pkg.Ident` a Markdown file names, pkg a
// directory under internal/ and Ident exported, that no Go file in
// that directory declares: a top-level func, type, var or const, or a
// method. A pkg that is no such directory is not checked.
func checkIdents(root string) []string {
	decls := map[string]map[string]bool{} // by package; nil: not one
	declared := func(pkg string) map[string]bool {
		if names, ok := decls[pkg]; ok {
			return names
		}
		files, _ := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		var names map[string]bool
		if len(files) > 0 {
			names = packageDecls(files)
		}
		decls[pkg] = names
		return names
	}
	var problems []string
	walkMarkdown(root, func(path string, data []byte) {
		if rel, err := filepath.Rel(root, path); err == nil && pathExempt[filepath.ToSlash(rel)] {
			return
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range identRef.FindAllStringSubmatch(span, -1) {
					if names := declared(m[1]); names != nil && !names[m[2]] {
						problems = append(problems, fmt.Sprintf("%s:%d: %s.%s: not declared in internal/%s", path, i+1, m[1], m[2], m[1]))
					}
				}
			}
		}
	})
	return problems
}

// packageDecls returns the names the Go files declare at top level,
// methods included.
func packageDecls(files []string) map[string]bool {
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			continue // the compiler reports real syntax errors
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// checkDesignLength reports a DESIGN.md at root over 600 lines,
// counting lines as wc -l does.
func checkDesignLength(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil
	}
	if n := strings.Count(string(data), "\n"); n > 600 {
		return []string{fmt.Sprintf("DESIGN.md: %d lines, over the 600-line cap", n)}
	}
	return nil
}

// changesEntry is a CHANGES.md entry: its PR number and its text.
var changesEntry = regexp.MustCompile(`(?m)^- PR (\d+)[^\n]*(?:\n  [^\n]*)*`)

// checkChangesEntries reports a CHANGES.md entry at root for PR 46 or
// later that is longer than 3 000 characters.
func checkChangesEntries(root string) []string {
	data, _ := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	var problems []string
	for _, e := range changesEntry.FindAllSubmatch(data, -1) {
		if pr, _ := strconv.Atoi(string(e[1])); pr >= 46 && utf8.RuneCount(e[0]) > 3000 {
			problems = append(problems, fmt.Sprintf("CHANGES.md: the PR %d entry has %d characters, over 3000", pr, utf8.RuneCount(e[0])))
		}
	}
	return problems
}

// badLink resolves one link target relative to the Markdown file it
// appears in. External links are trusted (this runner is offline);
// file targets must exist on disk, and anchors — in-page or on a
// Markdown target — must match a heading in the addressed file.
func badLink(fromFile, target string, slugs *slugCache) (bool, string) {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return false, ""
	}
	anchor := ""
	if i := strings.IndexAny(target, "#?"); i >= 0 {
		if target[i] == '#' {
			anchor = target[i+1:]
		}
		target = target[:i]
	}
	resolved := fromFile // in-page anchor
	if target != "" {
		resolved = filepath.Join(filepath.Dir(fromFile), target)
		if _, err := os.Stat(resolved); err != nil {
			return true, "target does not exist"
		}
	}
	if anchor == "" {
		return false, ""
	}
	if !strings.HasSuffix(strings.ToLower(resolved), ".md") {
		return false, "" // anchors into non-Markdown targets are not modeled
	}
	if !slugs.has(resolved, anchor) {
		return true, fmt.Sprintf("no heading in %s slugs to #%s", resolved, anchor)
	}
	return false, ""
}

// slugCache memoizes each Markdown file's heading anchors.
type slugCache struct{ byFile map[string]map[string]bool }

func newSlugCache() *slugCache {
	return &slugCache{byFile: make(map[string]map[string]bool)}
}

func (c *slugCache) has(path, anchor string) bool {
	set, ok := c.byFile[path]
	if !ok {
		set = headingSlugs(path)
		c.byFile[path] = set
	}
	return set[strings.ToLower(anchor)]
}

// headingSlugs extracts every ATX heading outside fenced code blocks
// and slugs it the way GitHub does: strip inline markup, lowercase,
// drop punctuation, spaces to hyphens, and suffix repeats with -1, -2,
// ... so duplicate headings stay addressable.
func headingSlugs(path string) map[string]bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return map[string]bool{}
	}
	out := make(map[string]bool)
	counts := make(map[string]int)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		level := 0
		for level < len(trimmed) && trimmed[level] == '#' {
			level++
		}
		if level == 0 || level > 6 || level == len(trimmed) || trimmed[level] != ' ' {
			continue
		}
		slug := slugify(trimmed[level+1:])
		if n := counts[slug]; n > 0 {
			out[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			out[slug] = true
		}
		counts[slug]++
	}
	return out
}

// headingLink unwraps [text](url) inside a heading; GitHub slugs the
// visible text only.
var headingLink = regexp.MustCompile(`\[([^\]]*)\]\([^)]*\)`)

// slugify converts one heading's text to its GitHub anchor: markup
// characters vanish, letters and digits survive lowercased, spaces and
// hyphens become/remain hyphens, everything else is dropped.
func slugify(text string) string {
	text = headingLink.ReplaceAllString(text, "$1")
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(text)) {
		switch {
		case r == ' ' || r == '-':
			b.WriteByte('-')
		case r == '_' || ('a' <= r && r <= 'z') || ('0' <= r && r <= '9'):
			b.WriteRune(r)
		case r > 127 && !isPunctRune(r):
			b.WriteRune(r) // non-ASCII letters survive (é, ü, ...)
		}
	}
	return b.String()
}

// isPunctRune reports non-ASCII punctuation/symbol runes GitHub strips
// from anchors (§, †, arrows, ...) as opposed to letters it keeps.
func isPunctRune(r rune) bool {
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}
