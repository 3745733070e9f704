package experiment

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables in EXPERIMENTS.md from a fresh run")

// experimentsDoc holds the golden tables: one fenced block per seeded
// experiment, right after a `<!-- golden: ID -->` marker line.
const experimentsDoc = "../../EXPERIMENTS.md"

// seededIDs are the experiments whose Full tables are fully
// deterministic: simulated radio, seeded randomness, no wall clock.
// E8, E9 and E15–E18 time real work, so EXPERIMENTS.md keeps their
// tables unmarked, as measured figures.
var seededIDs = []string{"A1", "A2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E10", "E11", "E12", "E13", "E14"}

var goldenMarker = regexp.MustCompile(`(?m)^<!-- golden: (\w+) -->$`)

// TestExperimentTablesGolden regenerates every seeded table at Full
// scale and compares it byte for byte with its block in EXPERIMENTS.md,
// which is the one committed copy of those numbers. After an intended
// change, rerun with -update and explain the changed rows beside the
// table.
func TestExperimentTablesGolden(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	marked := map[string]int{}
	for _, m := range goldenMarker.FindAllStringSubmatch(doc, -1) {
		marked[m[1]]++
	}
	for _, id := range seededIDs {
		if marked[id] != 1 {
			t.Errorf("EXPERIMENTS.md has %d golden markers for %s, want 1", marked[id], id)
		}
		delete(marked, id)
	}
	for id := range marked {
		t.Errorf("EXPERIMENTS.md marks %s golden, but it is not a seeded experiment", id)
	}
	if t.Failed() {
		return
	}

	for _, id := range seededIDs {
		t.Run(id, func(t *testing.T) {
			got := Runs[id](Full).Table.String()
			start, end, err := goldenBlock(doc, id)
			if err != nil {
				t.Fatal(err)
			}
			want := doc[start:end]
			switch {
			case want == got:
			case *update:
				doc = doc[:start] + got + doc[end:]
			default:
				t.Errorf("%s table differs from EXPERIMENTS.md at %s\n"+
					"after an intended change: go test ./internal/experiment -run Golden -update, then explain the changed rows",
					id, firstDiff(want, got))
			}
		})
	}
	if *update && doc != string(raw) {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenBlock returns the extent doc[start:end] of the fenced block
// after id's marker, fences excluded.
func goldenBlock(doc, id string) (start, end int, err error) {
	open := "<!-- golden: " + id + " -->\n```\n"
	i := strings.Index(doc, open)
	if i < 0 {
		return 0, 0, fmt.Errorf("%s: marker is not followed by a ``` fence line", id)
	}
	start = i + len(open)
	// Search from the opening fence's newline so an empty block is found.
	n := strings.Index(doc[start-1:], "\n```\n")
	if n < 0 {
		return 0, 0, fmt.Errorf("%s: golden block has no closing fence", id)
	}
	return start, start + n, nil
}

// firstDiff names the first line where want and got differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return fmt.Sprintf("%q", ls[i])
		}
		return "(no line)"
	}
	for i := 0; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  EXPERIMENTS.md: %s\n  regenerated:    %s", i+1, line(w, i), line(g, i))
		}
	}
	return "(no difference)"
}
