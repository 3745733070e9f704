//go:build race

package topology

// raceEnabled reports a -race build, whose detector allocates on its
// own: allocation budgets are asserted only without it.
const raceEnabled = true
