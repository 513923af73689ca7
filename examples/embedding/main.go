// Embedding: visualise what the fixed-lattice parallel embedding does —
// run the multilevel scheme on a mesh, then draw the embedded graph,
// the processor lattice (the paper's Figure 1), and the separator with
// its refinement strip (the paper's Figure 2) as an SVG.
//
// Output: embedding.svg in the working directory.
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
)

func main() {
	const p = 9 // a 3x3 grid, exactly the paper's Figure 1 setting
	mesh := gen.DelaunayRandom(4000, 16)
	g := mesh.G
	opt := core.DefaultOptions(5)
	h := coarsen.BuildHierarchy(g, p, opt.Coarsen)

	// Run the parallel embedding and keep each rank's view.
	views := make([]*embed.Distributed, p)
	mpi.Run(p, opt.Model, func(c *mpi.Comm) {
		views[c.Rank()] = embed.ParallelEmbed(c, h, opt.Embed)
	})
	pos := make([]geometry.Vec2, g.NumVertices())
	owner := make([]int, g.NumVertices())
	var lat *embed.Lattice
	for r, d := range views {
		for i, id := range d.OwnedIDs {
			pos[id] = d.OwnedPos[i]
			owner[id] = r
		}
		if d.Lat != nil {
			lat = d.Lat
		}
	}

	// Partition the embedded graph so the separator strip can be drawn.
	res, err := core.PartitionChecked(g, p, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "embedding:", err)
		os.Exit(1)
	}
	fmt.Printf("embedded %d vertices on a %dx%d processor lattice; cut %d (strip %d vertices, %.1fx separator)\n",
		g.NumVertices(), lat.Grid.Rows, lat.Grid.Cols, res.Cut, res.StripSize,
		float64(res.StripSize)/math.Max(float64(res.Cut), 1))

	svg := render(g, pos, owner, lat, res.Part)
	if err := os.WriteFile("embedding.svg", []byte(svg), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "embedding:", err)
		os.Exit(1)
	}
	fmt.Println("wrote embedding.svg (vertices coloured by owning processor; cut edges in red)")
}

// render draws the embedded graph: edges in light grey, cut edges in
// red, vertices coloured by owner, lattice cuts as dashed lines.
func render(g *graph.Graph, pos []geometry.Vec2, owner []int, lat *embed.Lattice, part []int32) string {
	const size = 900.0
	r := geometry.BoundingRect(pos).Expand(1)
	sx := func(p geometry.Vec2) float64 { return (p.X - r.X0) / r.Width() * size }
	sy := func(p geometry.Vec2) float64 { return (p.Y - r.Y0) / r.Height() * size }
	palette := []string{
		"#4c78a8", "#f58518", "#54a24b", "#b279a2", "#e45756",
		"#72b7b2", "#eeca3b", "#9d755d", "#bab0ac",
	}
	out := fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		size, size, size, size)
	out += fmt.Sprintf(`<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", size, size)
	// Edges first.
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u >= v {
				continue
			}
			color, width := "#dddddd", 0.5
			if part[u] != part[v] {
				color, width = "#e45756", 1.6
			}
			out += fmt.Sprintf(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
				sx(pos[u]), sy(pos[u]), sx(pos[v]), sy(pos[v]), color, width)
		}
	}
	// Lattice cuts.
	for _, x := range lat.XCuts[1 : len(lat.XCuts)-1] {
		px := (x - r.X0) / r.Width() * size
		out += fmt.Sprintf(`<line x1="%.1f" y1="0" x2="%.1f" y2="%.0f" stroke="#888" stroke-dasharray="6,4"/>`+"\n", px, px, size)
	}
	for _, y := range lat.YCuts[1 : len(lat.YCuts)-1] {
		py := (y - r.Y0) / r.Height() * size
		out += fmt.Sprintf(`<line x1="0" y1="%.1f" x2="%.0f" y2="%.1f" stroke="#888" stroke-dasharray="6,4"/>`+"\n", py, py, size)
	}
	// Vertices.
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		c := palette[owner[v]%len(palette)]
		out += fmt.Sprintf(`<circle cx="%.1f" cy="%.1f" r="1.8" fill="%s"/>`+"\n",
			sx(pos[v]), sy(pos[v]), c)
	}
	return out + "</svg>\n"
}
