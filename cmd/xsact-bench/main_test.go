package main

import "testing"

func TestRunFigures(t *testing.T) {
	// Small corpus keeps the test fast; all output modes must succeed.
	for _, fig := range []string{"4a", "4b", "sweeps", "scale", "algs", "richness", "focus"} {
		if err := run(fig, 120, 1, 6, 0.1); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
	}
}

func TestRunAll(t *testing.T) {
	if err := run("all", 120, 1, 6, 0.1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("nope", 50, 1, 6, 0.1); err == nil {
		t.Fatal("unknown figure should error")
	}
}
