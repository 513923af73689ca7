package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestRunRejectsBeforeWriting: a run that cannot finish fails before
// creating any file, and a flag value it cannot take is a usage error.
func TestRunRejectsBeforeWriting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		usage bool
	}{
		{"bad-format", []string{"-graph", "delaunay_n20", "-scale", "0.02", "-format", "bogus"}, true},
		{"scale-zero", []string{"-graph", "ecology1", "-scale", "0"}, true},
		{"scale-nan", []string{"-graph", "delaunay_n20", "-scale", "NaN"}, true},
		{"no-coords", []string{"-graph", "kkt_power", "-scale", "0.02"}, false},
		{"unknown-graph", []string{"-graph", "nope"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			graphPath, coordsPath := filepath.Join(dir, "g.graph"), filepath.Join(dir, "g.xy")
			args := append(tc.args, "-o", graphPath, "-coords", coordsPath)
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%q) succeeded", args)
			}
			var ue usageError
			if errors.As(err, &ue) != tc.usage {
				t.Fatalf("error %v: usage error %v, want %v", err, !tc.usage, tc.usage)
			}
			for _, p := range []string{graphPath, coordsPath} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("%s exists after a failed run", filepath.Base(p))
				}
			}
		})
	}
}

// TestRunWritesGraphAndCoords: a good run writes a graph file that
// parses back to the generated size and one coordinate line per vertex.
func TestRunWritesGraphAndCoords(t *testing.T) {
	dir := t.TempDir()
	graphPath, coordsPath := filepath.Join(dir, "g.graph"), filepath.Join(dir, "g.xy")
	var stdout, stderr bytes.Buffer
	args := []string{"-graph", "delaunay_n20", "-scale", "0.02", "-o", graphPath, "-coords", coordsPath}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadMETIS(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(coordsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(bytes.NewReader(data)); sc.Scan(); lines++ {
		if len(strings.Fields(sc.Text())) != 2 {
			t.Fatalf("coordinate line %d: %q", lines+1, sc.Text())
		}
	}
	if g.NumVertices() < 256 || lines != g.NumVertices() {
		t.Fatalf("graph has %d vertices, coordinate file %d lines", g.NumVertices(), lines)
	}
}

// TestRunReportsFailedWrite: a write the device refuses is an error,
// not a silent success.
func TestRunReportsFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-graph", "ecology1", "-scale", "0.02", "-o", "/dev/full"}, &stdout, &stderr); err == nil {
		t.Fatal("writing to /dev/full succeeded")
	}
}
