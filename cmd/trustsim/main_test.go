package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/trustnet"
)

func TestRunDefaultsSmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-peers", "30", "-epochs", "3", "-rounds", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "final global trust") {
		t.Fatalf("missing summary:\n%s", out)
	}
	if !strings.Contains(out, "eigentrust") {
		t.Fatal("mechanism name missing")
	}
}

// TestFlagRunPinned compares flag runs with the stdout and -history bytes
// recorded under testdata: the flag-built scenario must keep reproducing
// them exactly.
func TestFlagRunPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"defaults", nil},
		{"trustme-selfish", []string{"-mechanism", "trustme", "-selfish", "0.1"}},
		{"none-gate-privacy", []string{"-mechanism", "none", "-gate", "0.1", "-context", "privacy"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hist := filepath.Join(t.TempDir(), "history.json")
			var out strings.Builder
			if err := run(append(tc.args, "-history", hist), &out); err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct{ got, pinned string }{
				{out.String(), tc.name + ".out"},
				{readFile(t, hist), tc.name + ".history.json"},
			} {
				if want := readFile(t, filepath.Join("testdata", f.pinned)); f.got != want {
					t.Errorf("output differs from testdata/%s:\n%s", f.pinned, f.got)
				}
			}
		})
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunAllMechanisms(t *testing.T) {
	for _, mech := range []string{"eigentrust", "powertrust", "powertrust-plain", "trustme", "anonrep", "none"} {
		var sb strings.Builder
		err := run([]string{"-peers", "20", "-epochs", "2", "-rounds", "3", "-mechanism", mech}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
	}
}

func TestRunAllContexts(t *testing.T) {
	for _, ctx := range []string{"balanced", "privacy", "performance", "marketplace"} {
		var sb strings.Builder
		err := run([]string{"-peers", "20", "-epochs", "2", "-rounds", "3", "-context", ctx}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-mechanism", "nope"},
		{"-mechanism", ""},
		{"-context", "nope"},
		{"-context", ""},
		{"-malicious", "0.8", "-selfish", "0.5"},
		{"-bogusflag"},
		{"-peers", "0"},
		{"-peers", "1"},
		{"-rounds", "0"},
		{"-shards", "0"},
		{"-epochs", "-1"},
		{"-disclosure", "1.5"},
		{"-disclosure", "-1"},
		{"-gate", "1"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestCheckpointResume proves the CLI checkpoint workflow: 3 epochs +
// checkpoint, then resume + 3 more, prints exactly what one uninterrupted
// 6-epoch run prints — the snapshot preserves every stream position.
func TestCheckpointResume(t *testing.T) {
	scenario := []string{"-peers", "30", "-rounds", "4", "-malicious", "0.2", "-gate", "0.1"}
	snap := filepath.Join(t.TempDir(), "run.snap")

	var full strings.Builder
	if err := run(append([]string{"-epochs", "6"}, scenario...), &full); err != nil {
		t.Fatal(err)
	}

	var first strings.Builder
	if err := run(append([]string{"-epochs", "3", "-checkpoint", snap}, scenario...), &first); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run(append([]string{"-epochs", "3", "-resume", snap}, scenario...), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != full.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
			full.String(), resumed.String())
	}
}

func TestResumeRejectsMismatchedScenario(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.snap")
	var sb strings.Builder
	if err := run([]string{"-peers", "30", "-epochs", "2", "-rounds", "3", "-checkpoint", snap}, &sb); err != nil {
		t.Fatal(err)
	}
	var other strings.Builder
	if err := run([]string{"-peers", "40", "-epochs", "2", "-rounds", "3", "-resume", snap}, &other); err == nil {
		t.Fatal("resume into a different population accepted")
	}
	var missing strings.Builder
	if err := run([]string{"-peers", "30", "-epochs", "2", "-resume", filepath.Join(t.TempDir(), "nope")}, &missing); err == nil {
		t.Fatal("resume from missing file accepted")
	}
}

// TestResumeRejectsOldVersionSnapshot pins the -resume failure mode for a
// previous-generation checkpoint: a clear version-mismatch message, not a
// raw gob decode error.
func TestResumeRejectsOldVersionSnapshot(t *testing.T) {
	type v1State struct{ Engine string }
	type v1Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v1State
	}
	snap := filepath.Join(t.TempDir(), "old.snap")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v1Snapshot{Version: 1, Peers: 30, Mechanism: "eigentrust"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-peers", "30", "-epochs", "2", "-resume", snap}, &sb)
	if err == nil {
		t.Fatal("old-version snapshot accepted")
	}
	if !strings.Contains(err.Error(), "snapshot version mismatch (got 1, want 8)") {
		t.Fatalf("resume error %q does not name the version mismatch", err)
	}
}

// TestResumeRejectsV5Checkpoint resumes a real checkpoint of an older format
// generation, written by "trustsim -peers 120 -epochs 4 -checkpoint" before
// a ledger item counted its recipients: -resume must fail with the version
// mismatch.
func TestResumeRejectsV5Checkpoint(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-peers", "120", "-epochs", "1", "-resume", filepath.Join("testdata", "v5-peers120.snap")}, &sb)
	if err == nil {
		t.Fatal("v5 checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "snapshot version mismatch (got 5, want 8)") {
		t.Fatalf("resume error %q does not name the version mismatch", err)
	}
}

// TestResumeRejectsV7Checkpoint resumes a real checkpoint of the last format
// generation, written by "trustsim -peers 120 -epochs 4 -checkpoint" while
// the state still stored its epoch, round counter and cumulative totals
// beside the logs they count. Gob skips those fields, so the blob would
// decode; -resume must fail with the version mismatch.
func TestResumeRejectsV7Checkpoint(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-peers", "120", "-epochs", "1", "-resume", filepath.Join("testdata", "v7-peers120.snap")}, &sb)
	if err == nil {
		t.Fatal("v7 checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "snapshot version mismatch (got 7, want 8)") {
		t.Fatalf("resume error %q does not name the version mismatch", err)
	}
}

func TestRunWithGateAndSelfish(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-peers", "25", "-epochs", "2", "-rounds", "3",
		"-gate", "0.3", "-selfish", "0.2", "-malicious", "0.2", "-coupled=false"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "system trusted") {
		t.Fatal("verdict line missing")
	}
}

// TestScenarioFlag runs every registered scenario by name, twice, and
// demands byte-identical output — the acceptance bar for declarative
// scenarios: each built-in runs deterministically from its spec.
func TestScenarioFlag(t *testing.T) {
	for _, name := range trustnet.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			var a, b strings.Builder
			if err := run([]string{"-scenario", name}, &a); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-scenario", name}, &b); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("scenario %q is not deterministic", name)
			}
			if !strings.Contains(a.String(), "final global trust") {
				t.Fatalf("scenario %q output missing summary:\n%s", name, a.String())
			}
		})
	}
}

// TestScenarioFlagFromFile: a JSON spec file runs like a registered name,
// and the -shards flag never changes the trajectory.
func TestScenarioFlagFromFile(t *testing.T) {
	sc := trustnet.MustScenario("churnstorm")
	sc.Epochs = 4
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "storm.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, sharded strings.Builder
	if err := run([]string{"-scenario", path}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path, "-shards", "4"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != sharded.String() {
		t.Fatal("-shards changed a scenario run's output")
	}
}

// TestScenarioCheckpointResume: -checkpoint/-resume compose with -scenario.
// A 2-epoch spec checkpointed then resumed under a 3-epoch spec prints
// exactly the last three table rows of one uninterrupted 5-epoch run — the
// workflow the README documents for continuing a trustnetd snapshot offline.
func TestScenarioCheckpointResume(t *testing.T) {
	spec := func(epochs int) string {
		sc := trustnet.MustScenario("baseline")
		sc.Peers = 30
		sc.EpochRounds = 4
		sc.Epochs = epochs
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tableRows := func(out string) []string {
		var rows []string
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 1 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					rows = append(rows, line)
				}
			}
		}
		return rows
	}

	var full strings.Builder
	if err := run([]string{"-scenario", spec(5)}, &full); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "run.snap")
	var first strings.Builder
	if err := run([]string{"-scenario", spec(2), "-checkpoint", snap}, &first); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run([]string{"-scenario", spec(3), "-resume", snap}, &resumed); err != nil {
		t.Fatal(err)
	}

	fullRows, resumedRows := tableRows(full.String()), tableRows(resumed.String())
	if len(fullRows) != 5 || len(resumedRows) != 3 {
		t.Fatalf("row counts: full %d want 5, resumed %d want 3", len(fullRows), len(resumedRows))
	}
	for i, row := range resumedRows {
		if row != fullRows[2+i] {
			t.Fatalf("resumed row %d differs from uninterrupted run:\n%s\n%s", i, row, fullRows[2+i])
		}
	}
	if !strings.HasPrefix(strings.TrimSpace(resumedRows[0]), "2") {
		t.Fatalf("resumed run should continue at epoch 2, got row %q", resumedRows[0])
	}
}

// TestScenarioFlagUnknown: an unresolvable reference names the registered
// scenarios instead of running defaults.
func TestScenarioFlagUnknown(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", "no-such-thing"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "quickstart") {
		t.Fatalf("err = %v, want an error listing registered scenarios", err)
	}
}
