package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process of this binary and returns
// the metrics of its final JSON line.
func runChild(workload string, seed uint64, o Options) (map[string]Metric, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-size", strconv.FormatFloat(o.Size, 'g', -1, 64),
		"-workdir", o.WorkDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", workload, seed, err)
	}
	if !last.Correct {
		return nil, fmt.Errorf("%s seed %d: %d operations failed", workload, seed, last.Failed)
	}
	return last.Metrics, nil
}

// Selfcheck applies the acceptance gate to this binary on this machine: two
// sets of n runs per workload (set A on seeds seed…seed+n-1, set B on the
// next n, each run a fresh process), then per end-to-end metric the set
// medians, each set's quartile spread as a share of its median, and how
// much worse B's median is than A's. It fails when a spread (setup_s
// excepted) or the worsening exceeds the metric's bound, and warns when a
// spread exceeds a third of it. README.md gives the remedy order.
func Selfcheck(w io.Writer, n int, workload string, seed uint64, o Options) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("selfcheck needs at least 2 runs a set")
	}
	todo, err := Select(workload)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range todo {
		name := wl.Name
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				m, err := runChild(name, seed+uint64(s*n+i), o)
				if err != nil {
					return false, err
				}
				for k, v := range m {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %8s %8s %6s\n", name, "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound")
		for _, spec := range EndToEnd {
			_, ma, _ := quartiles(sets[0][spec.Name])
			_, mb, _ := quartiles(sets[1][spec.Name])
			sa, sb := spread(sets[0][spec.Name]), spread(sets[1][spec.Name])
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case worse > spec.Bound:
				verdict, ok = "FAIL: medians disagree", false
			case spec.Name != "setup_s" && (sa > spec.Bound || sb > spec.Bound):
				verdict, ok = "FAIL: spread over bound", false
			case spec.Name != "setup_s" && (sa > spec.Bound/3 || sb > spec.Bound/3):
				verdict = "warn: spread over bound/3"
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%% %s\n",
				"", spec.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*spec.Bound, verdict)
		}
	}
	return ok, nil
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
