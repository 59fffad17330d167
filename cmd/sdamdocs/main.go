// Command sdamdocs checks the repository's documentation against the
// code, so the docs cannot silently drift the way the pre-PR-10 README
// had (flag tables missing -baseline-select-tol and -cpuprofile, stale
// package counts). Four checks, all stdlib:
//
//   - Every relative markdown link in every tracked *.md file must
//     resolve to an existing file (fenced code blocks and inline code
//     spans are ignored; #anchors and absolute URLs are skipped).
//
//   - Every flag table annotated with an HTML marker comment
//
//     <!-- sdamdocs:flags cmd/<name> -->
//
//     must list exactly the flags the named command registers — both
//     directions: a flag added to the command without a table row
//     fails, as does a row for a flag the command no longer has. Flag
//     registrations are read from the command's Go source (go/ast), so
//     the check needs no execution. Every cmd/* package that registers
//     flags must carry at least one marker somewhere in the docs.
//
//   - DESIGN.md's numbered sections ("## N." / "## Na.") must be in
//     monotonic order with no duplicates — the numbering README and
//     CHANGES.md cite by "§N".
//
//   - The tables under "## Metric catalog" in docs/OBSERVABILITY.md
//     must name exactly the metrics the code registers — both
//     directions. Registrations are the string-literal first arguments
//     of obs.NewCounter / NewGauge / NewHistogram in non-test Go files
//     outside testdata (go/ast again); a non-literal name is itself a
//     finding, since it cannot be checked.
//
// Exit status 1 with file:line findings when anything is off; CI runs
// it via `make docs`.
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
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamdocs:", err)
		os.Exit(2)
	}
	var findings []string
	mds, err := markdownFiles(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamdocs:", err)
		os.Exit(2)
	}
	cmdFlags, err := commandFlags(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamdocs:", err)
		os.Exit(2)
	}
	covered := make(map[string]bool)
	for _, md := range mds {
		f, err := checkMarkdown(root, md, cmdFlags, covered)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdamdocs:", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	for _, cmd := range sortedKeys(cmdFlags) {
		if flags := cmdFlags[cmd]; len(flags) > 0 && !covered[cmd] {
			findings = append(findings,
				fmt.Sprintf("%s: registers %d flags but no markdown file carries a <!-- sdamdocs:flags %s --> table", cmd, len(flags), cmd))
		}
	}
	findings = append(findings, checkDesignNumbering(root)...)
	catalog, err := checkMetricCatalog(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamdocs:", err)
		os.Exit(2)
	}
	findings = append(findings, catalog...)
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sdamdocs: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks upward from the working directory to the directory
// holding go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// markdownFiles lists every *.md under root, skipping dependency-less
// noise directories (.git, testdata — fixture docs are not docs).
func markdownFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// commandFlags maps "cmd/<name>" to the sorted flag names its main
// package registers, extracted from source.
func commandFlags(root string) (map[string][]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, "cmd", e.Name())
		flags, err := flagsInDir(dir)
		if err != nil {
			return nil, err
		}
		out["cmd/"+e.Name()] = flags
	}
	return out, nil
}

// flagRegistrars maps flag-package function names to the argument index
// holding the flag name.
var flagRegistrars = map[string]int{
	"Bool": 0, "String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "TextVar": 1,
	"BoolVar": 1, "StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1,
	"Uint64Var": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1,
}

// flagsInDir parses the package in dir and returns every flag name
// registered through the flag package's top-level functions.
func flagsInDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, pname := range sortedKeys(pkgs) {
		pkg := pkgs[pname]
		for _, fname := range sortedKeys(pkg.Files) {
			ast.Inspect(pkg.Files[fname], func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok || recv.Name != "flag" {
					return true
				}
				idx, ok := flagRegistrars[sel.Sel.Name]
				if !ok || idx >= len(call.Args) {
					return true
				}
				if name, ok := stringLit(call.Args[idx]); ok {
					seen[name] = true
				}
				return true
			})
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

var (
	markerRe   = regexp.MustCompile(`<!--\s*sdamdocs:flags\s+(cmd/[\w-]+)\s*-->`)
	linkRe     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	codeSpanRe = regexp.MustCompile("`[^`]*`")
	tableRowRe = regexp.MustCompile("^\\s*\\|\\s*`?(-[a-zA-Z][\\w.-]*)`?")
)

// checkMarkdown runs the link check and any flag-table markers in one
// file. covered records which commands got a table.
func checkMarkdown(root, path string, cmdFlags map[string][]string, covered map[string]bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		rel = path
	}
	var findings []string
	lines := strings.Split(string(data), "\n")
	inFence := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(codeSpanRe.ReplaceAllString(line, "``"), -1) {
			if f := checkLink(root, path, m[1]); f != "" {
				findings = append(findings, fmt.Sprintf("%s:%d: %s", rel, i+1, f))
			}
		}
		if m := markerRe.FindStringSubmatch(line); m != nil {
			findings = append(findings, checkFlagTable(rel, lines, i, m[1], cmdFlags, covered)...)
		}
	}
	return findings, nil
}

// checkLink validates one markdown link target; empty string means ok.
func checkLink(root, mdPath, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"), strings.HasPrefix(target, "#"):
		return ""
	}
	target, _, _ = strings.Cut(target, "#")
	if target == "" {
		return ""
	}
	resolved := filepath.Join(filepath.Dir(mdPath), filepath.FromSlash(target))
	if !strings.HasPrefix(resolved, root) {
		return fmt.Sprintf("link %q escapes the repository", target)
	}
	if _, err := os.Stat(resolved); err != nil {
		return fmt.Sprintf("broken link %q", target)
	}
	return ""
}

// checkFlagTable compares the markdown table following the marker at
// lines[idx] against the named command's registered flags.
func checkFlagTable(rel string, lines []string, idx int, cmd string, cmdFlags map[string][]string, covered map[string]bool) []string {
	registered, ok := cmdFlags[cmd]
	if !ok {
		return []string{fmt.Sprintf("%s:%d: marker names %s, which does not exist", rel, idx+1, cmd)}
	}
	covered[cmd] = true
	documented := make(map[string]int)
	inTable := false
	for j := idx + 1; j < len(lines); j++ {
		line := strings.TrimSpace(lines[j])
		if line == "" {
			if inTable {
				break
			}
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		inTable = true
		if m := tableRowRe.FindStringSubmatch(line); m != nil {
			documented[strings.TrimPrefix(m[1], "-")] = j + 1
		}
	}
	var findings []string
	have := make(map[string]bool, len(registered))
	for _, f := range registered {
		have[f] = true
		if _, ok := documented[f]; !ok {
			findings = append(findings, fmt.Sprintf("%s:%d: flag table for %s is missing -%s", rel, idx+1, cmd, f))
		}
	}
	for _, f := range sortedKeys(documented) {
		if !have[f] {
			findings = append(findings, fmt.Sprintf("%s:%d: flag table for %s documents -%s, which the command does not register", rel, documented[f], cmd, f))
		}
	}
	return findings
}

// sortedKeys returns the map's keys sorted, so findings are emitted in
// a deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var sectionRe = regexp.MustCompile(`^## (\d+)([a-z]?)\.`)

// checkDesignNumbering enforces monotonic "## N." / "## Na." headings
// in DESIGN.md: a section is followed by its next letter-suffixed
// subsection or by the next integer.
func checkDesignNumbering(root string) []string {
	path := filepath.Join(root, "DESIGN.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("DESIGN.md: %v", err)}
	}
	var findings []string
	prevNum, prevLetter, seen := 0, "", false
	for i, line := range strings.Split(string(data), "\n") {
		m := sectionRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		num, _ := strconv.Atoi(m[1])
		letter := m[2]
		ok := (num == prevNum+1 && letter == "") ||
			(num == prevNum && letter > prevLetter)
		if !ok {
			findings = append(findings, fmt.Sprintf(
				"DESIGN.md:%d: section %s%s. out of order after %d%s.", i+1, m[1], letter, prevNum, prevLetter))
		}
		prevNum, prevLetter, seen = num, letter, true
	}
	if !seen {
		findings = append(findings, "DESIGN.md: no numbered sections found")
	}
	return findings
}

// obsRegistrars are the obs constructors whose first argument names a
// metric.
var obsRegistrars = map[string]bool{"NewCounter": true, "NewGauge": true, "NewHistogram": true}

// observabilityDoc is the metric catalog's home, relative to the root.
const observabilityDoc = "docs/OBSERVABILITY.md"

// checkMetricCatalog compares the metrics the code registers with the
// ones docs/OBSERVABILITY.md's catalog lists.
func checkMetricCatalog(root string) ([]string, error) {
	registered, findings, err := registeredMetrics(root)
	if err != nil {
		return nil, err
	}
	doc, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(observabilityDoc)))
	if err != nil {
		return nil, err
	}
	return append(findings, compareCatalog(registered, catalogMetrics(string(doc)))...), nil
}

// registeredMetrics maps every metric name registered in root's
// non-test Go files (outside testdata and hidden directories) to its
// first registration's file:line, plus a finding per non-literal name.
func registeredMetrics(root string) (map[string]string, []string, error) {
	names := make(map[string]string)
	var findings []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !obsRegistrars[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obs" {
				return true
			}
			pos := fset.Position(call.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			where := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
			name, ok := stringLit(call.Args[0])
			if !ok {
				findings = append(findings, fmt.Sprintf("%s: obs.%s name is not a string literal, so %s cannot be checked against it", where, sel.Sel.Name, observabilityDoc))
				return true
			}
			if _, dup := names[name]; !dup {
				names[name] = where
			}
			return true
		})
		return nil
	})
	return names, findings, err
}

var catalogRowRe = regexp.MustCompile("^\\s*\\|\\s*`([^`]+)`")

// catalogMetrics maps each metric named in the first column of a table
// row under the "## Metric catalog" heading to its 1-based line.
func catalogMetrics(doc string) map[string]int {
	names := make(map[string]int)
	in := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.TrimSpace(line) == "## Metric catalog"
			continue
		}
		if m := catalogRowRe.FindStringSubmatch(line); in && m != nil {
			names[m[1]] = i + 1
		}
	}
	return names
}

// compareCatalog reports registered metrics the catalog lacks and
// catalog rows no code registers.
func compareCatalog(registered map[string]string, documented map[string]int) []string {
	var findings []string
	for _, name := range sortedKeys(registered) {
		if _, ok := documented[name]; !ok {
			findings = append(findings, fmt.Sprintf("%s: metric catalog is missing %s (registered at %s)", observabilityDoc, name, registered[name]))
		}
	}
	for _, name := range sortedKeys(documented) {
		if _, ok := registered[name]; !ok {
			findings = append(findings, fmt.Sprintf("%s:%d: metric catalog lists %s, which no code registers", observabilityDoc, documented[name], name))
		}
	}
	return findings
}
