package telemetry

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// registeredNames builds every bundle with the prefixes the binaries and
// bench/ use and lists each registered metric as "section name", where
// section is the snapshot JSON field the metric lands in.
func registeredNames() string {
	reg := NewRegistry()
	for _, prefix := range []string{"transport", "peer", "backend", "client", "front"} {
		NewTransportMetrics(reg, prefix, 2)
	}
	NewServerMetrics(reg, "server")
	NewLookupMetrics(reg)
	NewSelectorMetrics(reg)
	NewNodeMetrics(reg, 2)
	NewWALMetrics(reg)
	NewProxyMetrics(reg)
	NewRepairMetrics(reg)
	RegisterRuntimeMetrics(reg)

	s := reg.Snapshot()
	var lines []string
	add := func(section string, names []string) {
		for _, name := range names {
			lines = append(lines, section+" "+name)
		}
	}
	add("counters", sortedKeys(s.Counters))
	add("gauges", sortedKeys(s.Gauges))
	add("histograms", sortedKeys(s.Histograms))
	add("per_server", sortedKeys(s.PerServer))
	add("per_server_histograms", sortedKeys(s.PerServerHistograms))
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestRegisteredMetricNames pins every metric name the bundles register,
// and the snapshot section each lands in: bench/metrics.go, the
// operations guide and operators' dashboards read them. The golden was
// written before the bundles lost their record methods.
// TELEMETRY_GEN_GOLDEN=1 rewrites it from the code under test.
func TestRegisteredMetricNames(t *testing.T) {
	const golden = "testdata/golden-metric-names.txt"
	got := registeredNames()
	if os.Getenv("TELEMETRY_GEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with TELEMETRY_GEN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("registered metrics diverged from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one of want and got holds.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
