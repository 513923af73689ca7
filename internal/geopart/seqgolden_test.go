package geopart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// seqInput is one input of TestSequentialGeometricGolden with its
// dimension's partitioners bound to its coordinates.
type seqInput struct {
	name   string
	g      *graph.Graph
	bisect func(Config) ([]int32, Stats, error)
	rcb    func() ([]int32, Stats)
	kway   func(parts int) ([]int32, error)
}

func seqInput2D(name string, g *graph.Graph, coords []geometry.Vec2) seqInput {
	return seqInput{
		name:   name,
		g:      g,
		bisect: func(cfg Config) ([]int32, Stats, error) { return Partition(g, coords, cfg) },
		rcb:    func() ([]int32, Stats) { return RCBBisect(g, coords) },
		kway:   func(parts int) ([]int32, error) { return RCB(g, coords, parts) },
	}
}

func seqInput3D(name string, g *graph.Graph, coords []geometry.Vec3) seqInput {
	return seqInput{
		name:   name,
		g:      g,
		bisect: func(cfg Config) ([]int32, Stats, error) { return Partition3D(g, coords, cfg) },
		rcb:    func() ([]int32, Stats) { return RCBBisect(g, coords) },
		kway:   func(parts int) ([]int32, error) { return RCB(g, coords, parts) },
	}
}

// TestSequentialGeometricGolden pins the sequential geometric
// partitioners in both dimensions: G30, G7 and G7-NL bisection, the RCB
// single cut and 8-way RCB on 2-D grid, Delaunay and KKT-with-layout
// inputs and on 3-D grid and random-geometric inputs (cut, imbalance
// bits, tries, best kind and an FNV-1a hash of the part vector), plus
// the raw bits of an R³ and an R⁴ centerpoint. The values were recorded
// while every kernel still had a hand-written copy per dimension; the
// one generic implementation must reproduce them.
func TestSequentialGeometricGolden(t *testing.T) {
	type golden struct {
		cut   int64
		imb   uint64
		tries int
		kind  string
		hash  uint64
	}
	want := map[string]golden{
		"grid2d/G30":          {46, 0x0, 30, "line", 0xd55bab53d2009c55},
		"grid2d/G7":           {40, 0x0, 7, "line", 0xd0ed72400cd57625},
		"grid2d/G7-NL":        {55, 0x0, 7, "circle", 0x40c99f5bf17040b5},
		"grid2d/rcb":          {40, 0x0, 1, "rcb", 0x4ddcdc5906b1625},
		"grid2d/rcb-8way":     {160, 0x0, 0, "", 0xa69849a626a70425},
		"delaunay/G30":        {128, 0x0, 30, "circle", 0xcf36315b91974d05},
		"delaunay/G7":         {134, 0x0, 7, "line", 0xe41a966a3f105085},
		"delaunay/G7-NL":      {148, 0x0, 7, "circle", 0x52bccf6494fd8125},
		"delaunay/rcb":        {140, 0x0, 1, "rcb", 0x2c67bae37eb494a5},
		"delaunay/rcb-8way":   {514, 0x0, 0, "", 0x4779c690d69fe0b5},
		"kkt-layout/G30":      {366, 0x0, 30, "circle", 0xf249e5145ab53a65},
		"kkt-layout/G7":       {366, 0x0, 7, "line", 0xa6de3e27de403d85},
		"kkt-layout/G7-NL":    {372, 0x0, 7, "circle", 0x8793cbf03b2915b5},
		"kkt-layout/rcb":      {420, 0x0, 1, "rcb", 0xad1b13e4740487c5},
		"kkt-layout/rcb-8way": {1288, 0x0, 0, "", 0xe68782edffc092a5},
		"grid3d/G30":          {178, 0x0, 30, "plane", 0x32338292b0043c5},
		"grid3d/G7":           {210, 0x0, 7, "plane", 0xddcd517e11d18425},
		"grid3d/G7-NL":        {273, 0x0, 7, "sphere", 0x695d957e920f7125},
		"grid3d/rcb":          {144, 0x0, 1, "rcb3d", 0x739aa71909b29c25},
		"grid3d/rcb-8way":     {432, 0x0, 0, "", 0xce31468743ef6625},
		"rgg3d/G30":           {673, 0x3f35da45249ec000, 30, "plane", 0x3168ec1fab7a4b15},
		"rgg3d/G7":            {627, 0x3f35da45249ec000, 7, "plane", 0xe270bc6a27a35ad5},
		"rgg3d/G7-NL":         {670, 0x3f35da45249ec000, 7, "sphere", 0xd6b92a600286c565},
		"rgg3d/rcb":           {729, 0x3f35da45249ec000, 1, "rcb3d", 0x9c4535572fbf9fd5},
		"rgg3d/rcb-8way":      {2023, 0x3f35da45249ec000, 0, "", 0x1ffcd3e2652af655},
	}
	grid, mesh, kkt := gen.Grid2D(40, 40), gen.DelaunayRandom(3000, 5), gen.KKTPower(1500, 3)
	grid3, rgg := gen.Grid3D(12, 12, 12), gen.RandomGeometric3D(3000, 0.1, 5)
	inputs := []seqInput{
		seqInput2D("grid2d", grid.G, grid.Coords),
		seqInput2D("delaunay", mesh.G, mesh.Coords),
		seqInput2D("kkt-layout", kkt.G, embed.SequentialLayout(kkt.G, embed.SeqOptions{Seed: 3, IterSmooth: 30})),
		seqInput3D("grid3d", grid3.G, grid3.Coords),
		seqInput3D("rgg3d", rgg.G, rgg.Coords),
	}
	check := func(name string, g *graph.Graph, part []int32, st Stats, parts int) {
		t.Helper()
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, part)
		got := golden{graph.CutSize(g, part), math.Float64bits(graph.Imbalance(g, part, parts)), st.Tries, st.BestKind, h.Sum64()}
		if parts == 2 && (st.Cut != got.cut || st.Imbalance != graph.Imbalance(g, part, 2)) {
			t.Errorf("%s: stats report cut %d imbalance %v, the part vector has %d %v", name, st.Cut, st.Imbalance, got.cut, graph.Imbalance(g, part, 2))
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%q: {%d, %#x, %d, %q, %#x},", name, got.cut, got.imb, got.tries, got.kind, got.hash)
			return
		}
		if got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	for _, in := range inputs {
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"G30", G30()}, {"G7", G7()}, {"G7-NL", G7NL()}} {
			part, st, err := in.bisect(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(in.name+"/"+c.name, in.g, part, st, 2)
		}
		part, st := in.rcb()
		check(in.name+"/rcb", in.g, part, st, 2)
		part, err := in.kway(8)
		if err != nil {
			t.Fatal(err)
		}
		check(in.name+"/rcb-8way", in.g, part, Stats{}, 8)
	}

	wantBits := map[string][]uint64{
		"centerpoint-r3": {0x3f968da3e508d63a, 0x3f8e14b8a1de5ac3, 0xbf58f9423a07282c},
		"centerpoint-r4": {0xbf81ec1867179020, 0xbf84e7376bbe6410, 0x3f6b12ecd02319c5, 0x3f839ab8c3d0253e},
	}
	rng := rand.New(rand.NewSource(31))
	p3 := make([]geometry.Vec3, sampleSize)
	for i := range p3 {
		p3[i] = geometry.RandomUnitVec3(rng).Scale(rng.Float64())
	}
	p4 := make([]geometry.Vec4, sampleSize)
	for i := range p4 {
		p4[i] = geometry.RandomUnitVec4(rng).Scale(rng.Float64())
	}
	c3 := geometry.Centerpoint(p3, rng)
	c4 := geometry.Centerpoint(p4, rng)
	for name, xs := range map[string][]float64{
		"centerpoint-r3": {c3.X, c3.Y, c3.Z},
		"centerpoint-r4": {c4.X, c4.Y, c4.Z, c4.W},
	} {
		bits := make([]uint64, len(xs))
		for i, x := range xs {
			bits[i] = math.Float64bits(x)
		}
		if fmt.Sprint(bits) != fmt.Sprint(wantBits[name]) {
			t.Errorf("%s: bits %#x, want %#x", name, bits, wantBits[name])
		}
	}
}
