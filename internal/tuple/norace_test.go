//go:build !race

package tuple_test

const raceEnabled = false
