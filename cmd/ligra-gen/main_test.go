package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ligra"
)

func TestGenerateFamilies(t *testing.T) {
	cases := []struct {
		family string
		check  func(*ligra.Graph) error
	}{
		{"rmat", nil},
		{"rmat-directed", nil},
		{"twitter-sim", nil},
		{"grid3d", nil},
		{"randlocal", nil},
		{"er", nil},
	}
	for _, tc := range cases {
		g, err := generate(tc.family, 8, 4, 6, 500, 1000, 4, 0, 4, 0.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", tc.family)
		}
		if err := ligra.ValidateGraph(g); err != nil {
			t.Errorf("%s: %v", tc.family, err)
		}
	}
	if _, err := generate("nope", 8, 4, 6, 500, 1000, 4, 0, 4, 0.1, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.adj")
	var buf bytes.Buffer
	err := run([]string{"-family", "rmat", "-scale", "8", "-edgefactor", "4", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("output missing confirmation: %q", buf.String())
	}
	g, err := ligra.Load(out, ligra.LoadOptions{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 {
		t.Errorf("n = %d, want 256", g.NumVertices())
	}
}

func TestRunBinaryAndWeights(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.bin")
	var buf bytes.Buffer
	err := run([]string{"-family", "grid3d", "-side", "4", "-binary", "-weights", "9", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ligra.Load(out, ligra.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Error("weights flag ignored")
	}
	if !g.Symmetric() {
		t.Error("symmetric flag lost in binary format")
	}
}

func TestRunRequiresOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-family", "rmat"}, &buf); err == nil {
		t.Error("missing -o accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunEdgeListFormat(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.el")
	var buf bytes.Buffer
	err := run([]string{"-family", "ws", "-n", "100", "-k", "3", "-p", "0.2", "-format", "el", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ligra.ReadEdgeList(bytes.NewReader(data), ligra.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 100 {
		t.Errorf("n = %d, want 100", g.NumVertices())
	}
}

func TestRunUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-family", "rmat", "-scale", "8", "-format", "xml", "-o", "/tmp/x"}, &buf); err == nil {
		t.Error("unknown format accepted")
	}
}
