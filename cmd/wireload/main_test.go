package main

import (
	"os"
	"testing"
)

// The smoke tests run a short burst on each transport and rely on run's
// own sanity check (delivered > 0). They ride in `make test-race`.

func TestRunMem(t *testing.T) {
	if err := run([]string{"-transport", "mem", "-n", "3", "-rate", "500", "-dur", "300ms"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunTCP(t *testing.T) {
	if err := run([]string{"-transport", "tcp", "-n", "3", "-rate", "500", "-dur", "300ms"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunVectorPayload(t *testing.T) {
	if err := run([]string{"-transport", "mem", "-n", "3", "-rate", "500", "-dur", "300ms", "-msg", "vector"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown transport": {"-transport", "smoke-signal"},
		"unknown msg":       {"-msg", "jumbo"},
		"n too small":       {"-n", "1"},
		"zero rate":         {"-rate", "0"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Fatalf("%s: accepted %v", name, args)
		}
	}
}
