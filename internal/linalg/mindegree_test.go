package linalg_test

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/linalg"
	"thermalsched/internal/techlib"
)

// minDegreeOrderingMap is the original map-adjacency minimum-degree
// ordering, kept as the reference the bitset implementation must
// reproduce element for element (same degrees, same lowest-index
// tie-break).
func minDegreeOrderingMap(a *linalg.CSR) []int {
	n := a.N()
	adj := make([]map[int32]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int32]struct{})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && a.At(i, j) != 0 {
				adj[i][int32(j)] = struct{}{}
				adj[j][int32(i)] = struct{}{}
			}
		}
	}
	perm := make([]int, 0, n)
	done := make([]bool, n)
	nbrs := make([]int, 0, n)
	for len(perm) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if !done[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		nbrs = nbrs[:0]
		for u := range adj[best] {
			nbrs = append(nbrs, int(u))
		}
		sort.Ints(nbrs)
		for _, u := range nbrs {
			delete(adj[u], int32(best))
		}
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				adj[nbrs[x]][int32(nbrs[y])] = struct{}{}
				adj[nbrs[y]][int32(nbrs[x])] = struct{}{}
			}
		}
		adj[best] = nil
		done[best] = true
		perm = append(perm, best)
	}
	return perm
}

// conductanceCSR compresses a model's conductance matrix.
func conductanceCSR(m *hotspot.Model) *linalg.CSR {
	g := m.Conductance()
	b := linalg.NewSparseBuilder(g.Rows())
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			if v := g.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

func TestMinDegreeOrderingMatchesMapReference(t *testing.T) {
	cases := map[string]*linalg.CSR{}
	lib, err := techlib.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	// Bm1–Bm4 all schedule onto the paper platform.
	_, _, platform, _, err := cosynth.BuildPlatform(lib, cosynth.DefaultBusTimePerUnit, hotspot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases["paper platform (Bm1-Bm4)"] = conductanceCSR(platform)
	for _, n := range []int{4, 16, 64, 256} {
		fp, err := floorplan.Grid("b", n, 4e-6)
		if err != nil {
			t.Fatal(err)
		}
		m, err := hotspot.NewModel(fp, hotspot.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cases["grid "+strconv.Itoa(n)] = conductanceCSR(m)
	}
	// Random symmetric patterns exercise ties the regular grids do not.
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		n := 5 + rng.Intn(60)
		b := linalg.NewSparseBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, float64(n))
			for e := 0; e < 2; e++ {
				if j := rng.Intn(n); j != i {
					b.Add(i, j, -0.5)
					b.Add(j, i, -0.5)
				}
			}
		}
		cases["random "+strconv.Itoa(k)] = b.Build()
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := cases[name]
		got, want := linalg.MinDegreeOrdering(a), minDegreeOrderingMap(a)
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d eliminates %d, reference %d", name, i, got[i], want[i])
			}
		}
	}
}
