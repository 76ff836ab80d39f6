package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineDir = "../../bench/baselines"

// TestGate runs the gate over the checked-in baselines and over copies
// with one thing wrong: each case must yield exactly the stated number of
// violations, or an error.
func TestGate(t *testing.T) {
	kinds := []string{"rx", "rxflip", "blk", "blkflip", "flush", "recovery", "failover", "qrecovery", "latency", "tenant"}
	for _, kind := range kinds {
		t.Run(kind+"/self", func(t *testing.T) {
			if n, report := runGate(t, kind, nil); n != 0 {
				t.Fatalf("the baseline against itself: %d violations, want 0:\n%s", n, report)
			}
		})
	}
	for _, tc := range []struct {
		name, kind string
		edit       func(rows []map[string]any) []map[string]any
	}{
		{"banded metric +20%", "blk", scale(0, "ReadKIOPS", 1.2)},
		{"banded metric -20%", "blk", scale(0, "ReadKIOPS", 0.8)},
		{"dropped row", "blk", func(rows []map[string]any) []map[string]any { return rows[:len(rows)-1] }},
		{"recovery over the drain SLO", "recovery", set(0, "DrainP99US", 1001.0)},
		{"failover over its drain SLO", "failover", set(0, "DrainP99US", 151.0)},
		{"flip row over the guard-copy bound", "blkflip", set(1, "GuardBytesPerIO", float64(maxFlipGuardBytesPerIO+1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n, report := runGate(t, tc.kind, tc.edit); n != 1 {
				t.Fatalf("%d violations, want 1:\n%s", n, report)
			}
		})
	}
	t.Run("unknown kind", func(t *testing.T) {
		g := &gate{out: io.Discard, tolerance: 0.15, sloUS: 1000, failSloUS: 150}
		path := filepath.Join(baselineDir, "blk.json")
		if err := g.check("blkk", path, path); err == nil {
			t.Fatal("an unknown kind passed the gate")
		}
	})
}

// runGate checks kind's baseline, edited by edit when it is not nil,
// against the baseline itself with the gate's default settings, and
// returns the violation count and the gate's report.
func runGate(t *testing.T, kind string, edit func([]map[string]any) []map[string]any) (int, string) {
	t.Helper()
	base := filepath.Join(baselineDir, kind+".json")
	cur := base
	if edit != nil {
		blob, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		var rows []map[string]any
		if err := json.Unmarshal(blob, &rows); err != nil {
			t.Fatal(err)
		}
		if blob, err = json.Marshal(edit(rows)); err != nil {
			t.Fatal(err)
		}
		cur = filepath.Join(t.TempDir(), "BENCH_"+kind+".json")
		if err := os.WriteFile(cur, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var report strings.Builder
	g := &gate{out: &report, tolerance: 0.15, sloUS: 1000, failSloUS: 150}
	if err := g.check(kind, cur, base); err != nil {
		t.Fatal(err)
	}
	return g.violations, report.String()
}

func scale(row int, field string, by float64) func([]map[string]any) []map[string]any {
	return func(rows []map[string]any) []map[string]any {
		rows[row][field] = rows[row][field].(float64) * by
		return rows
	}
}

func set(row int, field string, v float64) func([]map[string]any) []map[string]any {
	return func(rows []map[string]any) []map[string]any {
		rows[row][field] = v
		return rows
	}
}
