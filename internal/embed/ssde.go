package embed

import (
	"math"
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// The sampled spectral distance embedding's sizes.
const (
	ssdeLandmarks  = 30 // BFS sources
	ssdePowerIters = 60 // power-iteration steps per eigenvector
)

// SSDELayout embeds g with Sampled Spectral Distance Embedding (Çivril,
// Magdon-Ismail & Bocek-Rivele, GD'06) — the scheme the paper's
// Section 5 proposes combining with ScalaPart to cut embedding time.
// BFS distances to a few landmark vertices form a sampled distance
// matrix; classical MDS on the double-centered squared distances
// (via power iteration on the n×k landmark matrix) yields the top two
// spectral coordinates.
//
// Compared with the force-directed embedding it is non-iterative in the
// graph size (a handful of BFS sweeps plus O(n·k) linear algebra) at
// some cost in local untangling — exactly the trade-off the
// SSDE-vs-lattice ablation measures.
func SSDELayout(g *graph.Graph, seed int64) []geometry.Vec2 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	k := ssdeLandmarks
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	// Landmark selection: maxmin ("farthest-first") from a random
	// start, which spreads landmarks across the graph's diameter.
	landmarks := make([]int32, 0, k)
	minDist := make([]int32, n)
	for i := range minDist {
		minDist[i] = math.MaxInt32
	}
	cur := int32(rng.Intn(n))
	dist := make([][]int32, 0, k)
	for len(landmarks) < k {
		landmarks = append(landmarks, cur)
		d := bfs(g, cur)
		dist = append(dist, d)
		next, far := cur, int32(-1)
		for v := 0; v < n; v++ {
			if d[v] < minDist[v] {
				minDist[v] = d[v]
			}
			if minDist[v] > far && minDist[v] != math.MaxInt32 {
				far, next = minDist[v], int32(v)
			}
		}
		if next == cur {
			break // graph exhausted (small or disconnected remainder)
		}
		cur = next
	}
	k = len(landmarks)
	// C is the n×k matrix of double-centered -d²/2 entries
	// (classical MDS on the sampled columns).
	c := make([][]float64, n)
	colMean := make([]float64, k)
	rowMean := make([]float64, n)
	total := 0.0
	for v := 0; v < n; v++ {
		c[v] = make([]float64, k)
		for j := 0; j < k; j++ {
			d := float64(dist[j][v])
			if dist[j][v] == math.MaxInt32 {
				d = float64(n) // disconnected: park far away
			}
			val := -0.5 * d * d
			c[v][j] = val
			colMean[j] += val
			rowMean[v] += val
			total += val
		}
	}
	for j := range colMean {
		colMean[j] /= float64(n)
	}
	for v := range rowMean {
		rowMean[v] /= float64(k)
	}
	total /= float64(n * k)
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			c[v][j] += total - colMean[j] - rowMean[v]
		}
	}
	// Top-2 left singular vectors of C via power iteration on C·Cᵀ
	// (applied as C·(Cᵀ·x), never forming the n×n product). Each axis
	// is scaled by its singular value so the embedding keeps the true
	// aspect ratio.
	u1, s1 := powerIterate(c, nil, ssdePowerIters, rng)
	u2, s2 := powerIterate(c, u1, ssdePowerIters, rng)
	coords := make([]geometry.Vec2, n)
	for v := 0; v < n; v++ {
		coords[v] = geometry.Vec2{X: u1[v] * s1, Y: u2[v] * s2}
	}
	return coords
}

// bfs returns hop distances from src (MaxInt32 where unreachable).
func bfs(g *graph.Graph, src int32) []int32 {
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = math.MaxInt32
	}
	cur := graph.GetCursor(g)
	defer cur.Release()
	d[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs, _ := cur.Arcs(v)
		for _, nb := range nbrs {
			if d[nb] == math.MaxInt32 {
				d[nb] = d[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return d
}

// powerIterate finds the dominant left singular vector of c (n×k) and
// its singular value, deflating against `against` when non-nil.
func powerIterate(c [][]float64, against []float64, iters int, rng *rand.Rand) ([]float64, float64) {
	n, k := len(c), len(c[0])
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	tmp := make([]float64, k)
	for it := 0; it < iters; it++ {
		if against != nil {
			dot := 0.0
			for i := range x {
				dot += x[i] * against[i]
			}
			for i := range x {
				x[i] -= dot * against[i]
			}
		}
		// tmp = Cᵀ x
		for j := 0; j < k; j++ {
			tmp[j] = 0
		}
		for i := 0; i < n; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			row := c[i]
			for j := 0; j < k; j++ {
				tmp[j] += row[j] * xi
			}
		}
		// x = C tmp, normalised
		norm := 0.0
		for i := 0; i < n; i++ {
			row := c[i]
			s := 0.0
			for j := 0; j < k; j++ {
				s += row[j] * tmp[j]
			}
			x[i] = s
			norm += s * s
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			// Degenerate direction; restart randomly.
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			continue
		}
		for i := range x {
			x[i] /= norm
		}
	}
	// Singular value of the converged direction: sigma = |Cᵀ·x|.
	for j := 0; j < k; j++ {
		tmp[j] = 0
	}
	for i := 0; i < n; i++ {
		row := c[i]
		for j := 0; j < k; j++ {
			tmp[j] += row[j] * x[i]
		}
	}
	sigma := 0.0
	for j := 0; j < k; j++ {
		sigma += tmp[j] * tmp[j]
	}
	return x, math.Sqrt(sigma)
}
