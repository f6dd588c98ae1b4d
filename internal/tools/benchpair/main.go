// Command benchpair measures a change against a parent revision the way
// bench/README.md and the choosing-metrics guide ask for a claimed
// gain: it builds ./bench from `git archive <parent>` and from the
// working tree into a temporary directory, then runs the two binaries
// in alternating order — parent first in even pairs, change first in
// odd ones — once per pair and workload, with the run length
// BENCHMARK.json fixes and tracing off. Every run is printed as it
// finishes; the summary gives, per workload and end-to-end metric, both
// medians and quartiles, the change's median relative to the parent's,
// the parent's IQR relative to its median, the pairs the change won, and
// whether that is a claimable gain by the guide's rule (claim). With
// -out, the summary is also written to FILE as JSON, with both
// revisions, the seed, the pairs, the machine's CPU count, GOMAXPROCS
// and the Go toolchain that built both sides.
//
// Usage (make e2e-pair PARENT=<rev> [PAIRS=10] [SEED=1] [WORKLOADS=a,b] [OUT=FILE]):
//
//	go run ./internal/tools/benchpair -parent <rev> [-pairs 10] [-seed 1] [-workloads a,b] [-out FILE]
//
// Run it from the repository root, on a machine doing nothing else.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the protocol needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the last line ./bench prints for one workload and mode.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "", "revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seed := flag.Uint64("seed", 1, "workload seed, the same on both sides")
	only := flag.String("workloads", "", "comma-separated workload names (default: all in BENCHMARK.json)")
	out := flag.String("out", "", "also write the summary to this file as JSON")
	flag.Parse()
	if *parent == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *pairs, *seed, *only, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// summary is what -out writes: the run's identity and its summary rows.
type summary struct {
	Parent     string `json:"parent"` // commit
	Change     string `json:"change"` // commit, "+dirty" when the working tree differs from it
	Seed       uint64 `json:"seed"`
	Pairs      int    `json:"pairs"`
	RunSeconds int    `json:"run_seconds"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"` // the toolchain that built both sides
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rows       []row  `json:"metrics"`
}

// row summarises one workload and end-to-end metric over the pairs.
type row struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Better       string  `json:"better"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentMedian float64 `json:"parent_median"`
	ParentQ3     float64 `json:"parent_q3"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ3     float64 `json:"change_q3"`
	ParentIQR    float64 `json:"parent_iqr"`
	Wins         int     `json:"wins"`
	Claim        string  `json:"claim"`
}

// gain is the change's median against the parent's, signed so that
// positive is an improvement.
func (r row) gain() float64 { return improvement(r.Better, r.ParentMedian, r.ChangeMedian) }

// improvement is to − from for a metric whose better direction is
// better, signed so that positive is an improvement.
func improvement(better string, from, to float64) float64 {
	if better == "lower" {
		return from - to
	}
	return to - from
}

func run(parent string, pairs int, seed uint64, only, out string) error {
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// The parent's source tree is unpacked so that its binary runs from
	// its own checkout, as the change's does from this one.
	parentDir := filepath.Join(tmp, "parent")
	if err := os.Mkdir(parentDir, 0o755); err != nil {
		return err
	}
	if err := sh(".", "git archive "+parent+" | tar -x -C "+parentDir); err != nil {
		return fmt.Errorf("unpack %s: %w", parent, err)
	}
	sum := summary{
		Seed: seed, Pairs: pairs, RunSeconds: sp.RunSeconds,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if sum.Parent, err = git("rev-parse", parent); err != nil {
		return err
	}
	if sum.Change, err = git("rev-parse", "HEAD"); err != nil {
		return err
	}
	if status, err := git("status", "--porcelain", "--untracked-files=no"); err != nil {
		return err
	} else if status != "" {
		sum.Change += "+dirty"
	}
	sides := []struct{ name, dir, bin string }{
		{"parent", parentDir, filepath.Join(tmp, "bench-parent")},
		{"change", ".", filepath.Join(tmp, "bench-change")},
	}
	for _, s := range sides {
		if err := sh(s.dir, "go build -o "+s.bin+" ./bench"); err != nil {
			return fmt.Errorf("build %s: %w", s.name, err)
		}
	}

	// values[workload][metric][side] holds one value per pair.
	values := map[string]map[string][2][]float64{}
	for _, w := range sp.Workloads {
		if only != "" && !strings.Contains(","+only+",", ","+w.Name+",") {
			continue
		}
		values[w.Name] = map[string][2][]float64{}
		for pair := 0; pair < pairs; pair++ {
			for k := 0; k < 2; k++ {
				side := (pair + k) % 2 // alternate which side runs first
				s := sides[side]
				res, err := bench(s.dir, s.bin, w.Name, seed, sp.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", w.Name, s.name, pair, err)
				}
				fmt.Printf("run %-20s pair %2d %-6s", w.Name, pair, s.name)
				for _, m := range sp.EndToEnd {
					v := res.Metrics[m.Name].Value
					fmt.Printf(" %s=%.4g", m.Name, v)
					both := values[w.Name][m.Name]
					both[side] = append(both[side], v)
					values[w.Name][m.Name] = both
				}
				fmt.Println()
			}
		}
	}

	fmt.Printf("\n%d pairs, seed %d, %d s per run; quartiles as [q1 q3]; 'better' is the change's median against the parent's, signed so that positive is an improvement; 'claim' is yes when the change won at least 9/10 of at least ten pairs and its median is better by more than the parent's IQR\n", pairs, seed, sp.RunSeconds)
	fmt.Printf("%-20s %-18s %30s %30s %8s %10s %6s %5s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "better", "parent iqr", "wins", "claim")
	sum.Rows = summarize(sp, values, pairs)
	for _, r := range sum.Rows {
		fmt.Printf("%-20s %-18s %30s %30s %+7.1f%% %9.1f%% %3d/%d %5s\n", r.Workload, r.Metric,
			fmt.Sprintf("%.5g [%.5g %.5g]", r.ParentMedian, r.ParentQ1, r.ParentQ3),
			fmt.Sprintf("%.5g [%.5g %.5g]", r.ChangeMedian, r.ChangeQ1, r.ChangeQ3),
			100*r.gain()/r.ParentMedian, 100*r.ParentIQR/r.ParentMedian, r.Wins, pairs, r.Claim)
	}
	if out == "" {
		return nil
	}
	return writeSummary(out, sum)
}

// summarize computes one row per workload and end-to-end metric that
// has values, in BENCHMARK.json's order; values[workload][metric][side]
// holds one value per pair, the parent's at side 0.
func summarize(sp spec, values map[string]map[string][2][]float64, pairs int) []row {
	var rows []row
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			both, ok := values[w.Name][m.Name]
			if !ok {
				continue
			}
			p, c := both[0], both[1]
			pq, cq := quartiles(p), quartiles(c)
			r := row{Workload: w.Name, Metric: m.Name, Better: m.Better,
				ParentQ1: pq[0], ParentMedian: pq[1], ParentQ3: pq[2],
				ChangeQ1: cq[0], ChangeMedian: cq[1], ChangeQ3: cq[2],
				ParentIQR: pq[2] - pq[0]}
			for i := range p {
				if improvement(m.Better, p[i], c[i]) > 0 {
					r.Wins++
				}
			}
			r.Claim = claim(r.Wins, pairs, r.gain(), r.ParentIQR)
			rows = append(rows, r)
		}
	}
	return rows
}

// writeSummary writes s to path as indented JSON.
func writeSummary(path string, s summary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// git runs a git command in the current directory and returns its
// output, trimmed.
func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// claim applies the choosing-metrics rule for claiming a gain: with at
// least ten pairs run (fewer is "n/a"), the change won at least nine
// tenths of them (ties count for neither) and its median is better than
// the parent's by more than the parent's IQR. gain is the median
// difference signed so that positive is better. The rule that failed
// operations must not rise needs no check here: a run with any failed
// operation stops benchpair (see bench).
func claim(wins, pairs int, gain, parentIQR float64) string {
	if pairs < 10 {
		return "n/a"
	}
	if 10*wins >= 9*pairs && gain > parentIQR {
		return "yes"
	}
	return "no"
}

// sh runs a shell command in dir, passing its output through.
func sh(dir, command string) error {
	cmd := exec.Command("sh", "-c", command)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	return cmd.Run()
}

// bench runs one workload once, tracing off, and parses the result line.
func bench(dir, bin, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(bin, "-workload", workload, "-trace", "0",
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if res.Failed != 0 {
		return result{}, fmt.Errorf("%d failed operations", res.Failed)
	}
	return res, nil
}

// quartiles returns q1, the median and q3 of xs by the exclusive method
// (Python's statistics.quantiles default, which bench/README.md uses).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i := range q {
		pos := float64(i+1)*float64(len(s)+1)/4 - 1
		lo := min(max(int(pos), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		frac := min(max(pos-float64(lo), 0), 1) // no extrapolation past the ends
		q[i] = s[lo] + frac*(s[hi]-s[lo])
	}
	return q
}
