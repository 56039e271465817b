package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunNewFormats(t *testing.T) {
	for _, format := range []string{"markdown", "md", "csv"} {
		if err := run("reviews", 1, "tomtom gps", false, "1,2", 6, 0.1, "multi-swap", format, false); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
	}
}

func TestRunGreedyAlgorithm(t *testing.T) {
	if err := run("reviews", 1, "tomtom gps", false, "1,2", 6, 0.1, "greedy", "text", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunCleanedQuery(t *testing.T) {
	// "tomtim" is a typo; with -clean it resolves to tomtom and the
	// comparison proceeds.
	if err := run("reviews", 1, "tomtim gps", false, "1,2", 6, 0.1, "top-k", "text", true); err != nil {
		t.Fatal(err)
	}
	// Without -clean the same query fails with NoMatchError.
	if err := run("reviews", 1, "tomtim gps", false, "1,2", 6, 0.1, "top-k", "text", false); err == nil {
		t.Fatal("typo query without -clean should fail")
	}
}

// TestRunPrintsNormalizedOptions: -L 0 and -x <= 0 run the generator at
// the defaults, and the summary line says so instead of echoing the
// flags.
func TestRunPrintsNormalizedOptions(t *testing.T) {
	for _, x := range []float64{0, -1} {
		out := captureStdout(t, func() error {
			return run("reviews", 1, "tomtom gps", false, "1,2", 0, x, "multi-swap", "text", false)
		})
		if !strings.Contains(out, "(algorithm multi-swap, L=10, x=10%)") {
			t.Fatalf("x=%v: summary does not print the defaults used:\n%s", x, out)
		}
	}
}

// captureStdout returns what run writes to standard output.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := run()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}
