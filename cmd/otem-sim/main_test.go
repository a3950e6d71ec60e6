package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when OTEM_SIM_ARGS is set, so the tests below
// can drive the command end to end in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("OTEM_SIM_ARGS"); ok {
		os.Args = append([]string{"otem-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonFiniteInputs runs the command on NaN and infinite sizes and
// temperatures and requires each to fail with a validation error instead
// of printing NaN results with exit status 0.
func TestRejectsNonFiniteInputs(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-method Parallel -cycle NYCC -repeats 1 -ucap NaN", "NameplateF = NaN"},
		{"-method Parallel -cycle NYCC -repeats 1 -ucap Inf", "NameplateF = +Inf"},
		{"-hmpc -usage commuter -route 120 -ambient NaN", "AmbientK = NaN"},
		{"-hmpc -usage commuter -route 120 -ucap Inf", "UltracapF = +Inf"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "OTEM_SIM_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("otem-sim %s: exit status 0, output:\n%s", tc.args, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("otem-sim %s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
