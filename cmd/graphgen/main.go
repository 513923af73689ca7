// Command graphgen emits any of the built-in synthetic test graphs in
// METIS or MatrixMarket format, optionally alongside its natural
// coordinates, so the suite can be fed to external tools.
//
// Example:
//
//	graphgen -graph hugebubbles-00020 -scale 0.5 -o bubbles.graph -coords bubbles.xy
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a flag value or combination the command cannot take;
// it exits with status 2, like a flag the parser rejects.
type usageError struct{ error }

// run parses args, builds the graph and writes it. Every flag value is
// checked before the graph is built, and the graph's coordinates before
// any file is created, so a run that cannot finish writes nothing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("graph", "delaunay_n20", "suite graph name (see -list)")
		scale    = fs.Float64("scale", 1.0, "size scale (1 = default bench size)")
		format   = fs.String("format", "metis", "output format: metis | mm")
		out      = fs.String("o", "", "output file (default stdout)")
		coords   = fs.String("coords", "", "also write natural coordinates ('x y' per line) here")
		compress = fs.Bool("compress", false, "report delta/varint compressed sizing stats and emit through the compressed representation (byte-identical output)")
		list     = fs.Bool("list", false, "list graphs and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *list {
		for _, e := range gen.SuiteEntries() {
			fmt.Fprintln(stdout, e.Name)
		}
		return nil
	}
	if err := gen.CheckScale(*scale); err != nil {
		return usageError{fmt.Errorf("-scale: %v", err)}
	}
	var write func(io.Writer, *graph.Graph) error
	switch *format {
	case "metis":
		write = graph.WriteMETIS
	case "mm":
		write = graph.WriteMatrixMarket
	default:
		return usageError{fmt.Errorf("unknown -format %q (want metis or mm)", *format)}
	}
	built, err := gen.Build(*name, *scale)
	if err != nil {
		return err
	}
	if *coords != "" && built.Coords == nil {
		return fmt.Errorf("%s has no natural coordinates", *name)
	}
	var plainBytes int64
	if *compress {
		// Compress before emitting so the write path itself exercises the
		// compressed representation; the emitted file is byte-identical.
		plainBytes = built.G.AdjacencyBytes()
		built.G = graph.Compress(built.G)
	}
	writeGraph := func(w io.Writer) error { return write(w, built.G) }
	if *out == "" {
		if err := writeGraph(stdout); err != nil {
			return err
		}
	} else if err := writeFile(*out, writeGraph); err != nil {
		return err
	}
	if *coords != "" {
		err := writeFile(*coords, func(w io.Writer) error {
			for _, p := range built.Coords {
				if _, err := fmt.Fprintf(w, "%g %g\n", p.X, p.Y); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if *compress {
		comp := built.G.AdjacencyBytes()
		perEdge, ratio := 0.0, 0.0
		if m := built.G.NumEdges(); m > 0 {
			perEdge = float64(comp) / float64(m)
			ratio = 100 * float64(comp) / float64(plainBytes)
		}
		fmt.Fprintf(stderr, "graphgen: %s n=%d m=%d adjacency plain=%dB compressed=%dB (%.2f B/edge, %.1f%% of plain)\n",
			*name, built.G.NumVertices(), built.G.NumEdges(), plainBytes, comp, perEdge, ratio)
	} else {
		fmt.Fprintf(stderr, "graphgen: %s n=%d m=%d\n", *name, built.G.NumVertices(), built.G.NumEdges())
	}
	return nil
}

// writeFile creates path and fills it through a buffer with fill,
// reporting the first error of fill, the flush or the close.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
