//go:build !race

package tota_test

const raceEnabled = false
