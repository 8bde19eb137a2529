package memtrace_test

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/memtrace"
)

// TestShippedProfilesValidate: every registry profile, and every profile
// scripts/e2e_distributed.sh submits as a counters job, is inside the
// bounds a worker enforces on job keys.
func TestShippedProfilesValidate(t *testing.T) {
	for _, w := range core.Registry() {
		if err := w.Profile.Validate(); err != nil {
			t.Errorf("registry %s: %v", w.Name, err)
		}
	}
	script, err := os.ReadFile("../../scripts/e2e_distributed.sh")
	if err != nil {
		t.Fatal(err)
	}
	// The script's job bodies are shell-escaped JSON; its job helper takes
	// the seed and length as $1 and $2.
	body := strings.NewReplacer(`\"`, `"`, "$1", "1", "$2", "40000").Replace(string(script))
	found := regexp.MustCompile(`"Profile":(\{[^}]*\})`).FindAllStringSubmatch(body, -1)
	if len(found) != 3 {
		t.Fatalf("found %d profiles in the e2e script, want 3", len(found))
	}
	for _, m := range found {
		var p memtrace.Profile
		if err := json.Unmarshal([]byte(m[1]), &p); err != nil {
			t.Fatalf("e2e profile %s: %v", m[1], err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("e2e profile %s: %v", m[1], err)
		}
	}
}

// TestValidateNamesTheField: each bound refuses the first value past it,
// naming the field, and accepts the value on it.
func TestValidateNamesTheField(t *testing.T) {
	for _, tc := range []struct {
		field   string
		ok, bad func(*memtrace.Profile)
	}{
		{"CodeKB", func(p *memtrace.Profile) { p.CodeKB = 1 << 14 }, func(p *memtrace.Profile) { p.CodeKB = 1<<14 + 1 }},
		{"CodeKB", func(p *memtrace.Profile) { p.CodeKB = 0 }, func(p *memtrace.Profile) { p.CodeKB = -1 }},
		{"HotCodeKB", func(p *memtrace.Profile) { p.CodeKB, p.HotCodeKB = 32, 32 }, func(p *memtrace.Profile) { p.CodeKB, p.HotCodeKB = 32, 33 }},
		{"KernelKB", func(p *memtrace.Profile) { p.KernelKB = 1 << 14 }, func(p *memtrace.Profile) { p.KernelKB = 1 << 20 }},
		{"ColdJumpP", func(p *memtrace.Profile) { p.ColdJumpP = 1 }, func(p *memtrace.Profile) { p.ColdJumpP = math.Nextafter(1, 2) }},
		{"FPUShare", func(p *memtrace.Profile) { p.FPUShare = 0 }, func(p *memtrace.Profile) { p.FPUShare = -0.25 }},
		{"NSrc2P", func(p *memtrace.Profile) { p.NSrc2P = 0.5 }, func(p *memtrace.Profile) { p.NSrc2P = math.NaN() }},
		{"NSrc3P", func(p *memtrace.Profile) { p.NSrc3P = 0.5 }, func(p *memtrace.Profile) { p.NSrc3P = math.Inf(1) }},
		{"ChainProb", func(p *memtrace.Profile) { p.ChainProb = 0.5 }, func(p *memtrace.Profile) { p.ChainProb = 2 }},
		{"MaxInstrs", func(p *memtrace.Profile) { p.MaxInstrs = 0 }, func(p *memtrace.Profile) { p.MaxInstrs = -1 }},
		{"BlockLen", func(p *memtrace.Profile) { p.BlockLen = 1 }, func(p *memtrace.Profile) { p.BlockLen = -1 }},
		{"FrameworkEvery", func(p *memtrace.Profile) { p.FrameworkEvery = 1 }, func(p *memtrace.Profile) { p.FrameworkEvery = -5 }},
		{"FrameworkInstrs", func(p *memtrace.Profile) { p.FrameworkInstrs = 1 }, func(p *memtrace.Profile) { p.FrameworkInstrs = -1 }},
		{"FrameworkJump", func(p *memtrace.Profile) { p.FrameworkJump = 1 }, func(p *memtrace.Profile) { p.FrameworkJump = -8 }},
		{"GCEvery", func(p *memtrace.Profile) { p.GCEvery = 1 }, func(p *memtrace.Profile) { p.GCEvery = -5 }},
		{"GCInstrs", func(p *memtrace.Profile) { p.GCInstrs = 1 }, func(p *memtrace.Profile) { p.GCInstrs = -1 }},
		{"HeapMB", func(p *memtrace.Profile) { p.HeapMB = 0 }, func(p *memtrace.Profile) { p.HeapMB = -1 }},
		{"ALUPerMem", func(p *memtrace.Profile) { p.ALUPerMem = 0 }, func(p *memtrace.Profile) { p.ALUPerMem = -1 }},
	} {
		var ok, bad memtrace.Profile
		tc.ok(&ok)
		tc.bad(&bad)
		if err := ok.Validate(); err != nil {
			t.Errorf("%s: the value on the bound was refused: %v", tc.field, err)
		}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("%s: the value past the bound got %v, want an error naming the field", tc.field, err)
		}
	}
}
