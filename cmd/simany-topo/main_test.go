package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "ring", "star", "full", "clustered4", "clustered8"} {
		topo, err := generate(kind, 16)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if topo.N() != 16 || !topo.Connected() {
			t.Errorf("%s: malformed topology", kind)
		}
	}
	if _, err := generate("blob", 8); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRunGenAndInfo(t *testing.T) {
	// -gen writes to stdout; redirect it to a file, then -info reads it.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.topo")
	old := os.Stdout
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	genErr := run([]string{"-gen", "clustered4", "-cores", "64"})
	os.Stdout = old
	f.Close()
	if genErr != nil {
		t.Fatal(genErr)
	}
	if err := run([]string{"-info", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no mode should error")
	}
	if err := run([]string{"-gen", "nope"}); err == nil {
		t.Error("bad kind should error")
	}
	if err := run([]string{"-info", "/nonexistent.topo"}); err == nil {
		t.Error("missing file should error")
	}
	for _, args := range [][]string{
		{"-describe", "-gen", "mesh:0"},
		{"-describe", "-gen", "mesh:-4"},
		{"-gen", "mesh", "-cores", "0"},
		{"-gen", "clustered4", "-cores", "-8"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v should error", args)
		}
	}
}
