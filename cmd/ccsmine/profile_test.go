package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccs/internal/obs"
)

// TestMineExplainAnalyze checks -explain-analyze appends the phase,
// level, and worker tables to the normal output.
func TestMineExplainAnalyze(t *testing.T) {
	path := writeDataset(t, false)
	var out bytes.Buffer
	err := run([]string{"-data", path, "-algo", "bms", "-supportfrac", "0.25",
		"-workers", "4", "-explain-analyze"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "answers (") {
		t.Fatalf("answers missing:\n%s", s)
	}
	for _, want := range []string{
		"profile: bms  workers=4  wall=",
		"candgen",
		"levels:",
		"precheck",
		"evaluate",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("-explain-analyze output missing %q:\n%s", want, s)
		}
	}
}

// TestMineProfileJSON checks -profile-json writes a parseable record whose
// totals look like the run, and that without either flag no profiling
// happens (the JSON output then has no profile block).
func TestMineProfileJSON(t *testing.T) {
	path := writeDataset(t, false)
	dir := t.TempDir()
	profPath := filepath.Join(dir, "p.json")
	var out bytes.Buffer
	err := run([]string{"-data", path, "-algo", "bms++", "-q", "max(price) <= 30",
		"-supportfrac", "0.25", "-profile-json", profPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.ProfileRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("profile JSON does not parse: %v\n%s", err, raw)
	}
	if rec.Name != "bms++" || rec.WallSeconds <= 0 || len(rec.Phases) == 0 {
		t.Fatalf("profile record wrong: %+v", rec)
	}
	if rec.Candidates == 0 || len(rec.Levels) == 0 {
		t.Fatalf("profile recorded no work: %+v", rec)
	}

	// unprofiled JSON run: no profile block
	out.Reset()
	if err := run([]string{"-data", path, "-algo", "bms", "-supportfrac", "0.25", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["profile"]; ok {
		t.Fatalf("unprofiled run emitted a profile block: %s", out.String())
	}

	// -json plus -profile-json: the block rides the JSON output too
	out.Reset()
	profPath2 := filepath.Join(dir, "p2.json")
	if err := run([]string{"-data", path, "-algo", "bms", "-supportfrac", "0.25",
		"-json", "-profile-json", profPath2}, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["profile"]; !ok {
		t.Fatalf("profiled -json run has no profile block: %s", out.String())
	}
}

// TestMineProgressMatchesProfileLevels checks -progress and the profiler
// read the same level records: one progress line per profile level, in the
// same order, for every algorithm — including BMS**'s uncounted chi levels
// and SolutionSpace.
func TestMineProgressMatchesProfileLevels(t *testing.T) {
	path := writeDataset(t, false)
	dir := t.TempDir()
	old := progressOut
	defer func() { progressOut = old }()
	for _, algo := range []string{"bms", "bms+", "bms++", "bms*", "bms**", "all", "space"} {
		var prog, out bytes.Buffer
		progressOut = &prog
		profPath := filepath.Join(dir, "p.json")
		err := run([]string{"-data", path, "-algo", algo, "-q", "sum(price) >= 1", "-progress",
			"-supportfrac", "0.25", "-profile-json", profPath}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		raw, err := os.ReadFile(profPath)
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.ProfileRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(prog.String()), "\n")
		if len(rec.Levels) == 0 || len(lines) != len(rec.Levels) {
			t.Fatalf("%s: %d progress lines for %d profile levels:\n%s", algo, len(lines), len(rec.Levels), prog.String())
		}
		for i, lv := range rec.Levels {
			if want := fmt.Sprintf(" %s level %d: %d candidates, %d kept,", lv.Phase, lv.Level, lv.Candidates, lv.Kept); !strings.Contains(lines[i], want) {
				t.Errorf("%s: progress line %q does not match profile level %+v", algo, lines[i], lv)
			}
		}
	}
}
