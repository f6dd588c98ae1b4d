package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// selfCheck runs two interleaved sets (A, B) of n end-to-end runs of
// this same binary per workload, every run a fresh process with its own
// seed, and compares the sets the way a later change will be compared
// with its parent: B's median may not be worse than A's by more than
// the metric's bound, and (setup_s aside) each set's own spread, the
// inter-quartile range as a share of the median, must stay inside it
// too. It returns an error on any excess.
func selfCheck(selected []workload, n, seconds int, allowDisk bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	excess := 0
	fmt.Printf("A/A self-check: 2 x %d runs per workload, %d s each\n", n, seconds)
	fmt.Printf("%-20s %-18s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, w := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runChild(exe, w, uint64(2*i+s+1), seconds, allowDisk)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, 2*i+s+1, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			worse := ratio(median(b)-median(a), median(a))
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			flag := ""
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				flag = "  EXCESS"
				excess++
			}
			fmt.Printf("%-20s %-18s %12.3f %12.3f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.name, d.name, median(a), median(b), 100*worse, 100*sa, 100*sb, 100*d.bound, flag)
		}
	}
	if excess > 0 {
		return fmt.Errorf("A/A self-check: %d metric(s) outside their bound on identical code", excess)
	}
	return nil
}

// runChild runs one end-to-end run in a child process and parses the
// JSON result on the last line of its output.
func runChild(exe string, w workload, seed uint64, seconds int, allowDisk bool) (jsonResult, error) {
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
	if allowDisk {
		args = append(args, "-allow-disk")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	var res jsonResult
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	return res, nil
}
