// Command tota-bench regenerates every experiment table of the TOTA
// paper reproduction (see EXPERIMENTS.md for the experiment index and
// the recorded outputs; its marked blocks are this command's output at
// -scale full, minus the timing lines).
//
// Usage:
//
//	tota-bench [-scale quick|full] [-run E1,E3,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tota/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tota-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tota-bench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "full", "experiment scale: quick or full")
	runFlag := fs.String("run", "", "comma-separated experiment ids to run (default all), e.g. E1,E3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale experiment.Scale
	switch *runValue(scaleFlag) {
	case "quick":
		scale = experiment.Quick
	case "full":
		scale = experiment.Full
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	var ids []string
	if *runFlag == "" {
		for id := range experiment.Runs {
			ids = append(ids, id)
		}
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := experiment.Runs[id]; !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	for _, id := range ids {
		start := time.Now()
		res := experiment.Runs[id](scale)
		fmt.Println(res.Table)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runValue(s *string) *string {
	v := strings.ToLower(strings.TrimSpace(*s))
	return &v
}
