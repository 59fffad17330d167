package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// repoRoot is the module root, two levels above this package.
const repoRoot = "../.."

func TestMetricCatalogMatchesRepo(t *testing.T) {
	findings, err := checkMetricCatalog(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestMetricCatalogFlagsStaleRow: a catalog row for a metric the code
// no longer registers (tape.live, removed with the live-stream path)
// fails the check.
func TestMetricCatalogFlagsStaleRow(t *testing.T) {
	registered, findings, err := registeredMetrics(repoRoot)
	if err != nil || len(findings) != 0 {
		t.Fatalf("registrations: %v %v", err, findings)
	}
	doc, err := os.ReadFile(filepath.Join(repoRoot, observabilityDoc))
	if err != nil {
		t.Fatal(err)
	}
	hits := "| `tape.hits` |"
	if !strings.Contains(string(doc), hits) {
		t.Fatal("catalog has no tape.hits row to insert after; test is vacuous")
	}
	stale := strings.Replace(string(doc), hits, "| `tape.live` | cells | stale |\n"+hits, 1)
	got := compareCatalog(registered, catalogMetrics(stale))
	if len(got) != 1 || !strings.Contains(got[0], "lists tape.live, which no code registers") {
		t.Fatalf("findings = %q, want one naming tape.live", got)
	}
}

// TestMetricCatalogFlagsMissingAndNonLiteral checks the other
// direction on a synthetic tree: an undocumented registration and a
// non-literal name are findings; test files and testdata are ignored.
func TestMetricCatalogFlagsMissingAndNonLiteral(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("p/p.go", `package p

var (
	a = obs.NewCounter("p.ops", "ops", "operations")
	b = obs.NewGauge("p.depth", "items", "queue depth")
	c = obs.NewHistogram(name, "ns", "latency", nil)
)
`)
	write("p/p_test.go", `package p

var t = obs.NewCounter("p.test_only", "ops", "")
`)
	write("p/testdata/f.go", `package f

var f = obs.NewCounter("p.fixture", "ops", "")
`)
	write(observabilityDoc, "# Observability\n\n## Metric catalog\n\n| name | unit |\n|---|---|\n| `p.depth` | items |\n\n## Span catalog\n\n| `p.span` | x |\n")
	got, err := checkMetricCatalog(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"p/p.go:6: obs.NewHistogram name is not a string literal, so docs/OBSERVABILITY.md cannot be checked against it",
		"docs/OBSERVABILITY.md: metric catalog is missing p.ops (registered at p/p.go:4)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
}
