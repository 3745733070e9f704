//go:build race

package transport

// raceEnabled reports a -race build, whose detector allocates on its
// own: allocation budgets are asserted only without it.
const raceEnabled = true
