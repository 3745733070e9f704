package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runChild runs one workload in a process of its own, so that no run
// inherits another's heap, and returns its result.
func runChild(workload string, o options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Dir(exe), "run-") // beside the binary, so inside the checkout's .bench_build
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "result.json")
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", out}
	if o.trace {
		args = append(args, "-trace", "1")
		if o.spans != "" {
			args = append(args, "-spans", o.spans+"."+workload)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if _, isExit := err.(*exec.ExitError); !isExit || cmd.ProcessState.ExitCode() != 1 {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		// Exit code 1 is an incorrect run: its result file says why.
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, err
	}
	if len(rf.Results) != 1 {
		return nil, fmt.Errorf("%s: result file holds %d results", workload, len(rf.Results))
	}
	return rf.Results[0], nil
}

// checkAgreement is the rig's test of itself, and the driver's
// acceptance rule run locally: every workload n times with n different
// seeds, twice over. The two sides take turns run by run (and take
// turns going first), so that a shift in the host's speed that lasts
// minutes falls on both. For each end-to-end metric it prints both
// medians, each side's quartile spread as a share of its median, and how
// much worse the second median is than the first. It fails when a spread
// (setup_s excepted) or a worsening exceeds the metric's bound.
func checkAgreement(n int, seed int64, seconds float64) (int, error) {
	failed := false
	fmt.Printf("| workload | metric | median A | median B | spread A | spread B | B worse by | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			side := (i + i/2) % 2 // A B B A A B B A …
			r, err := runChild(w.Name, options{seed: seed + int64(side*n+i/2), seconds: seconds})
			if err != nil {
				return 2, err
			}
			if !r.Correct {
				failed = true
			}
			for k, v := range r.E2E {
				sides[side][k] = append(sides[side][k], v)
			}
		}
		for _, d := range endToEnd {
			a, b := sides[0][d.Name], sides[1][d.Name]
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && math.Max(spreadA, spreadB) > d.Bound) {
				failed = true
				verdict = " FAIL"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.4f | %.4f | %+.4f | %g%s |\n",
				w.Name, d.Name, ma, mb, spreadA, spreadB, worse, d.Bound, verdict)
		}
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}
