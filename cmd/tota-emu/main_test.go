package main

import "testing"

func TestScenariosRun(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "gradient", args: []string{"-scenario", "gradient", "-w", "4", "-h", "3"}},
		{name: "gradient traced", args: []string{"-scenario", "gradient", "-w", "3", "-h", "2", "-trace"}},
		{name: "flock", args: []string{"-scenario", "flock", "-rounds", "5"}},
		{name: "routing", args: []string{"-scenario", "routing", "-w", "6", "-h", "4"}},
		{name: "meeting", args: []string{"-scenario", "meeting", "-rounds", "5"}},
		{name: "aggregate", args: []string{"-scenario", "aggregate", "-w", "4", "-h", "3"}},
		{name: "scale", args: []string{"-scenario", "scale", "-nodes", "400", "-ticks", "3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
		})
	}
}

func TestUnknownScenarioAndFlags(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
