package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command: invoked with "parserhawk" as
// its first argument, the test binary runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "parserhawk" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command in dir and returns its exit status and
// standard error.
func runCommand(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"parserhawk"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestNothingCapturedIsNoFailure: a successful compile that captured no
// query for -proof or -dimacs exits 0 with a note, and -cert is still
// written. Parse MPLS on tofino refutes no entry budget, so it has no
// UNSAT query to prove; a memo replay solves nothing at all.
func TestNothingCapturedIsNoFailure(t *testing.T) {
	examples, err := filepath.Abs("../../examples")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	code, stderr := runCommand(t, dir, "-target", "tofino", "-cert", "out.json", "-proof", "out.drat", "-q",
		filepath.Join(examples, "mpls", "parser.p4"))
	if code != 0 || !strings.Contains(stderr, "-proof: no UNSAT query with a proof was captured") {
		t.Fatalf("-proof without a refuted rung: exit %d, stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "out.json")); err != nil {
		t.Fatalf("-cert not written: %v", err)
	}
	quickstart := filepath.Join(examples, "quickstart", "parser.p4")
	for _, run := range []string{"cold", "memo replay"} {
		code, stderr := runCommand(t, dir, "-memo-dir", "memo", "-dimacs", "cnf", "-q", quickstart)
		if code != 0 {
			t.Fatalf("-dimacs, %s: exit %d, stderr:\n%s", run, code, stderr)
		}
		if captured := !strings.Contains(stderr, "no SAT query was captured"); captured != (run == "cold") {
			t.Fatalf("-dimacs, %s: stderr:\n%s", run, stderr)
		}
	}
}
