package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of a Registry, the unit served by
// the admin endpoint's /metrics, written by plsbench -telemetry-out,
// and pretty-printed by plsctl stats.
type Snapshot struct {
	TakenAt             time.Time                      `json:"taken_at"`
	Counters            map[string]int64               `json:"counters,omitempty"`
	Gauges              map[string]int64               `json:"gauges,omitempty"`
	Histograms          map[string]HistogramSnapshot   `json:"histograms,omitempty"`
	PerServer           map[string][]int64             `json:"per_server,omitempty"`
	PerServerHistograms map[string][]HistogramSnapshot `json:"per_server_histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one histogram. Buckets hold
// non-cumulative counts and omit empty buckets.
type HistogramSnapshot struct {
	Unit    string           `json:"unit,omitempty"` // "ns" renders as durations
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket. UpperBound -1
// marks the overflow bucket.
type BucketSnapshot struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Mean returns the average observation, 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation within the containing bucket. Observations in the
// overflow bucket report the last finite bound (the histogram cannot
// see beyond its range).
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	lower := int64(0)
	for _, b := range h.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank {
			if b.UpperBound < 0 {
				return lower // overflow bucket: clamp to the last finite bound
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - float64(prev)) / float64(b.Count)
			}
			return lower + int64(frac*float64(b.UpperBound-lower))
		}
		if b.UpperBound >= 0 {
			lower = b.UpperBound
		}
	}
	return lower
}

// ParseSnapshot decodes a snapshot from its JSON encoding (the exact
// payload /metrics serves), completing the round trip plsctl stats
// relies on.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: parse snapshot: %w", err)
	}
	return s, nil
}

// MarshalIndent renders the snapshot as indented JSON.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// formatValue renders v in the histogram's unit.
func formatValue(v int64, unit string) string {
	if unit == "ns" {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// Format pretty-prints the snapshot for terminals (plsctl stats).
// Sections and names are sorted for stable output.
func (s Snapshot) Format(w io.Writer) {
	fmt.Fprintf(w, "snapshot taken %s\n", s.TakenAt.Format(time.RFC3339))
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-36s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "\ngauges:")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-36s %12d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms:")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(w, "  %-36s count=%d mean=%s p50=%s p90=%s p99=%s\n",
				name, h.Count,
				formatValue(int64(h.Mean()), h.Unit),
				formatValue(h.Quantile(0.50), h.Unit),
				formatValue(h.Quantile(0.90), h.Unit),
				formatValue(h.Quantile(0.99), h.Unit))
		}
	}
	if len(s.PerServer) > 0 {
		fmt.Fprintln(w, "\nper-server:")
		for _, name := range sortedKeys(s.PerServer) {
			vals := s.PerServer[name]
			fmt.Fprintf(w, "  %-36s %v  (total=%d skew=%.3f)\n",
				name, vals, sumInt64(vals), Skew(vals))
		}
	}
	if len(s.PerServerHistograms) > 0 {
		fmt.Fprintln(w, "\nper-server histograms:")
		for _, name := range sortedKeys(s.PerServerHistograms) {
			for i, h := range s.PerServerHistograms[name] {
				if h.Count == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-30s[%3d] count=%d mean=%s p50=%s p99=%s\n",
					name, i, h.Count,
					formatValue(int64(h.Mean()), h.Unit),
					formatValue(h.Quantile(0.50), h.Unit),
					formatValue(h.Quantile(0.99), h.Unit))
			}
		}
	}
}

// String renders Format into a string.
func (s Snapshot) String() string {
	var b strings.Builder
	s.Format(&b)
	return b.String()
}

// Skew is the coefficient of variation (population stddev over mean) of
// a per-server vector: the live analogue of the paper's unfairness
// metric (Eq. 1) applied to load or storage instead of per-entry return
// probabilities. 0 means perfectly balanced; it returns 0 for empty or
// all-zero vectors.
func Skew(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(vals))) / mean
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sumInt64(vals []int64) int64 {
	var t int64
	for _, v := range vals {
		t += v
	}
	return t
}
