package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"dcbench/internal/report"
)

// TestUsageTextMatchesRealDefaults pins the -help output to
// report.DefaultOptions(): the flag defaults are taken from it, so
// PrintDefaults must advertise exactly those values.
func TestUsageTextMatchesRealDefaults(t *testing.T) {
	opts := report.DefaultOptions()
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	registerFlags(fs, &opts)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	usage := b.String()

	d := report.DefaultOptions()
	for flagName, want := range map[string]string{
		"scale":  fmt.Sprintf("default %g", d.Scale),
		"seed":   fmt.Sprintf("default %d", d.Seed),
		"instrs": fmt.Sprintf("default %d", d.Instrs),
		"warmup": fmt.Sprintf("default %d", d.Warmup),
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("-%s usage does not advertise %q:\n%s", flagName, want, usage)
		}
	}
	// The flag surface is a tracked size number (scripts/size.sh): adding
	// a flag is a deliberate act that updates this count and the doc
	// comment's table together.
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 11 {
		t.Errorf("dcbench registers %d flags, want 11", n)
	}
}

// TestDocCommentMatchesRealDefaults pins the package doc comment's flag
// table to report.DefaultOptions(), so the documented defaults can never
// drift from the real ones again (this PR fixed -scale documented as 0.02
// while the code defaulted to 0.05).
func TestDocCommentMatchesRealDefaults(t *testing.T) {
	f, err := os.Open("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	d := report.DefaultOptions()
	want := map[string]string{
		"scale":  fmt.Sprintf("%g", d.Scale),
		"seed":   fmt.Sprintf("%d", d.Seed),
		"instrs": fmt.Sprintf("%d", d.Instrs),
		"warmup": fmt.Sprintf("%d", d.Warmup),
		"j":      fmt.Sprintf("%d", d.Jobs),
	}
	re := regexp.MustCompile(`(?m)^//\s+-(scale|seed|instrs|warmup|j)\s+\S+.*\(default ([0-9.]+)\)`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) != len(want) {
		t.Fatalf("doc comment documents %d flag defaults, want %d", len(matches), len(want))
	}
	for _, m := range matches {
		if got := m[2]; got != want[m[1]] {
			t.Errorf("doc comment says -%s defaults to %s; report.DefaultOptions() says %s",
				m[1], got, want[m[1]])
		}
	}
}
