// Command ndorder computes a nested-dissection fill-reducing ordering
// for a graph (METIS file or built-in suite graph) using ScalaPart as
// the separator engine, and reports the symbolic Cholesky fill against
// the natural ordering.
//
//	ndorder -graph ecology1 -scale 0.25 -o perm.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

func main() {
	var (
		file  = flag.String("file", "", "METIS graph file")
		name  = flag.String("graph", "ecology1", "built-in suite graph name")
		scale = flag.Float64("scale", 0.25, "size scale for built-in graphs")
		p     = flag.Int("p", 8, "simulated ranks per bisection")
		seed  = flag.Int64("seed", 42, "random seed")
		out   = flag.String("o", "", "write the permutation here (one vertex id per line)")
	)
	flag.Parse()
	if err := gen.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "ndorder: -scale: %v\n", err)
		os.Exit(2)
	}
	if *p < 1 {
		fmt.Fprintf(os.Stderr, "ndorder: -p must be at least 1 (got %d)\n", *p)
		os.Exit(2)
	}
	var g *graph.Graph
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndorder:", err)
			os.Exit(1)
		}
		g, err = graph.ReadMETIS(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndorder:", err)
			os.Exit(1)
		}
	} else {
		for _, e := range gen.SuiteEntries() {
			if e.Name == *name {
				g = e.Build(*scale).G
				break
			}
		}
		if g == nil {
			fmt.Fprintf(os.Stderr, "ndorder: unknown graph %q\n", *name)
			os.Exit(1)
		}
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	perm, err := order.NestedDissection(g, *p, core.DefaultOptions(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndorder:", err)
		os.Exit(1)
	}
	natural := make([]int32, g.NumVertices())
	for i := range natural {
		natural[i] = int32(i)
	}
	ndFill := order.FillIn(g, perm)
	natFill := order.FillIn(g, natural)
	fmt.Printf("fill: natural %d, nested dissection %d", natFill, ndFill)
	if ndFill > 0 {
		fmt.Printf(" (%.2fx reduction)", float64(natFill)/float64(ndFill))
	}
	fmt.Println()
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ndorder:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		for _, v := range perm {
			fmt.Fprintln(w, v)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "ndorder:", err)
			os.Exit(1)
		}
		fmt.Printf("permutation written to %s\n", *out)
	}
}
