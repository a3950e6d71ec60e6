package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when OTEM_LIFETIME_ARGS is set, so the tests
// below can drive the command end to end in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("OTEM_LIFETIME_ARGS"); ok {
		os.Args = append([]string{"otem-lifetime"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsRepeatCountBelowOne requires a route of no cycles to fail as
// a flag error naming the flag, not as a panic.
func TestRejectsRepeatCountBelowOne(t *testing.T) {
	for _, args := range []string{"-repeats 0", "-repeats -2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "OTEM_LIFETIME_ARGS="+args+" -methods Parallel")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("otem-lifetime %s: exit status 0, output:\n%s", args, out)
			continue
		}
		if !strings.Contains(string(out), args+":") || strings.Contains(string(out), "panic:") {
			t.Errorf("otem-lifetime %s: want a flag error naming it, got:\n%s", args, out)
		}
	}
}
