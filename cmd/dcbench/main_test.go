package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"

	"dcbench/internal/report"
	"dcbench/internal/sweep"
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

// TestExportedGOGCWins pins the GC target's one rule: both binaries ask
// for it first thing, and an exported GOGC beats it.
func TestExportedGOGCWins(t *testing.T) {
	for _, path := range []string{"main.go", "../dcserved/main.go"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "func main() {\n\tsweep.SetGCTarget()\n") {
			t.Errorf("%s: main does not start with sweep.SetGCTarget()", path)
		}
	}
	// 123 stands for what the runtime read from the exported variable.
	start := debug.SetGCPercent(123)
	defer debug.SetGCPercent(start)
	t.Setenv("GOGC", "123")
	sweep.SetGCTarget()
	if got := debug.SetGCPercent(123); got != 123 {
		t.Errorf("GOGC=123 exported, yet the built-in target set %d", got)
	}
	os.Unsetenv("GOGC") // t.Setenv restores the original on cleanup
	sweep.SetGCTarget()
	if got := debug.SetGCPercent(123); got != 400 {
		t.Errorf("no GOGC exported: target = %d, want 400", got)
	}
}
