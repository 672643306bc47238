package dvecap

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallClockLine is the one line of capsim's output that differs run to run.
var wallClockLine = regexp.MustCompile(`(?m)^\[.* completed in .*\]\n`)

// TestGoldenOutputs builds the example programs, capsim and capassign and
// compares their stdout at fixed seeds, byte for byte, with testdata/golden
// — the user-visible numbers of the generator, the solve facade, a
// hand-built Cluster's Solve and Open, the session topology verbs and batch
// join, the churn
// driver's two modes (full re-solves under a handoff freeze among them), the
// autoscale loop and the one-instance command line in one net.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs twelve programs")
	}
	runs := []struct {
		golden, pkg string
		args        []string
	}{
		{"quickstart", "./examples/quickstart", nil},
		{"mmog-shards", "./examples/mmog-shards", nil},
		{"noisy-delays", "./examples/noisy-delays", nil},
		{"capacity-planning", "./examples/capacity-planning", nil},
		{"byoi", "./examples/byoi", nil},
		{"rollingdeploy", "./examples/rollingdeploy", nil},
		{"flashcrowd", "./examples/flashcrowd", nil},
		{"capsim-repair", "./cmd/capsim", []string{"-exp", "repair", "-reps", "2"}},
		{"capsim-autoscale", "./cmd/capsim", []string{"-exp", "autoscale", "-reps", "2"}},
		{"capsim-table3", "./cmd/capsim", []string{"-exp", "table3", "-reps", "2"}},
		{"capsim-staleness", "./cmd/capsim", []string{"-exp", "staleness", "-reps", "2"}},
		{"capassign", "./cmd/capassign", []string{"-scenario", "5s-15z-200c-100cp", "-seed", "7"}},
	}
	bin := t.TempDir()
	built := map[string]string{}
	for _, r := range runs {
		exe, ok := built[r.pkg]
		if !ok {
			exe = filepath.Join(bin, filepath.Base(r.pkg))
			if out, err := exec.Command("go", "build", "-o", exe, r.pkg).CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", r.pkg, err, out)
			}
			built[r.pkg] = exe
		}
		t.Run(r.golden, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", r.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(exe, r.args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", r.pkg, strings.Join(r.args, " "), err, stderr.Bytes())
			}
			got = wallClockLine.ReplaceAll(got, nil)
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: stdout differs from testdata/golden/%s.txt\n--- got\n%s--- want\n%s",
					r.pkg, strings.Join(r.args, " "), r.golden, got, want)
			}
		})
	}
}
