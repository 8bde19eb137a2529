package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"dcbench/internal/report"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
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
	if n != 9 {
		t.Errorf("dcbench registers %d flags, want 9", n)
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
	}
	re := regexp.MustCompile(`(?m)^//\s+-(scale|seed|instrs|warmup)\s+\S+.*\(default ([0-9.]+)\)`)
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

// loadCounter is a memo backend that counts the engine's lookups: the
// engine consults it inside a workload's cell before simulating, so zero
// lookups means no workload started.
type loadCounter struct{ loads atomic.Int64 }

func (b *loadCounter) Load(context.Context, sweep.Key) (*uarch.Counters, bool) {
	b.loads.Add(1)
	return nil, false
}

func (b *loadCounter) Store(context.Context, sweep.Key, *uarch.Counters) {}

// TestExportStopsOnCancel: SIGINT cancels the run's context, and `dcbench
// export` must stop its 26-workload sweep on it rather than run to the end.
func TestExportStopsOnCancel(t *testing.T) {
	opts := report.DefaultOptions()
	opts.Engine = sweep.NewEngine()
	var backend loadCounter
	opts.Engine.SetMemoBackend(&backend)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := exportJSON(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("exportJSON under a cancelled context = %v, want context.Canceled", err)
	}
	if n := backend.loads.Load(); n != 0 {
		t.Fatalf("the cancelled export started %d workloads, want 0", n)
	}
}
