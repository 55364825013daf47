package topology

import (
	"fmt"

	"repro/internal/xrand"
)

// edgeKey packs an undirected edge (u < v) for duplicate detection.
func edgeKey(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// WattsStrogatz returns the small-world graph of Watts and Strogatz: the
// ring lattice Ring(n, k) with each forward edge rewired to a uniformly
// random target with probability beta. beta=0 is the pure lattice (high
// diameter), beta=1 is near-random; small beta keeps local clustering
// while collapsing the diameter — the regime real peer-to-peer overlays
// live in. Rewiring never creates self-loops or duplicate links; a rewire
// with no legal target keeps the lattice edge. Deterministic in rng.
func WattsStrogatz(rng *xrand.PCG, n, k int, beta, lat float64) *Graph {
	validate(n, lat)
	if k < 1 || 2*k >= n {
		panic(fmt.Sprintf("topology: small-world needs 1 <= k and 2k < n, got n=%d k=%d", n, k))
	}
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("topology: small-world needs beta in [0,1], got %v", beta))
	}
	seen := make(map[int64]bool, n*k)
	edges := make([]edge, 0, n*k)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			seen[edgeKey(int32(i), int32((i+d)%n))] = true
		}
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			u, v := int32(i), int32((i+d)%n)
			if beta > 0 && rng.Float64() < beta {
				// Up to n attempts to find a fresh target; keep the
				// lattice edge when the node is saturated.
				for try := 0; try < n; try++ {
					w := int32(rng.Intn(n))
					if w == u || seen[edgeKey(u, w)] {
						continue
					}
					delete(seen, edgeKey(u, v))
					seen[edgeKey(u, w)] = true
					v = w
					break
				}
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			edges = append(edges, edge{a, b, lat})
		}
	}
	return build(n, edges)
}

// BarabasiAlbert returns the scale-free graph of Barabási and Albert:
// starting from a clique on m+1 nodes, each new node attaches m links to
// distinct existing nodes chosen proportionally to their current degree
// (the repeated-endpoints construction). Hubs emerge with power-law
// degrees — the shape measured in Bitcoin-like broadcast networks.
// Requires 1 <= m and m+1 <= n. Deterministic in rng.
func BarabasiAlbert(rng *xrand.PCG, n, m int, lat float64) *Graph {
	validate(n, lat)
	if m < 1 || m+1 > n {
		panic(fmt.Sprintf("topology: scale-free needs 1 <= m and m+1 <= n, got n=%d m=%d", n, m))
	}
	edges := make([]edge, 0, n*m)
	// endpoints holds every node once per incident link; sampling a
	// uniform element is degree-proportional sampling.
	endpoints := make([]int32, 0, 2*n*m)
	for u := int32(0); u < int32(m+1); u++ {
		for v := u + 1; v < int32(m+1); v++ {
			edges = append(edges, edge{u, v, lat})
			endpoints = append(endpoints, u, v)
		}
	}
	picked := make([]int32, 0, m)
	for i := m + 1; i < n; i++ {
		picked = picked[:0]
		for len(picked) < m {
			w := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, p := range picked {
				if p == w {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, w)
			}
		}
		for _, w := range picked {
			edges = append(edges, edge{w, int32(i), lat})
			endpoints = append(endpoints, w, int32(i))
		}
	}
	return build(n, edges)
}

// Link is one explicit entry of a latency table.
type Link struct {
	From, To int
	Lat      float64
}

// FromTable builds a graph from an explicit link list — the loader for
// measured latency matrices. Links are undirected; duplicates (in either
// direction), self-loops, out-of-range endpoints and non-positive
// latencies are rejected.
func FromTable(n int, links []Link) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: table needs n > 0, got %d", n)
	}
	seen := make(map[int64]bool, len(links))
	edges := make([]edge, 0, len(links))
	for i, l := range links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return nil, fmt.Errorf("topology: link %d (%d-%d) out of range [0,%d)", i, l.From, l.To, n)
		}
		if l.From == l.To {
			return nil, fmt.Errorf("topology: link %d is a self-loop at node %d", i, l.From)
		}
		if l.Lat <= 0 {
			return nil, fmt.Errorf("topology: link %d (%d-%d) has non-positive latency %v", i, l.From, l.To, l.Lat)
		}
		key := edgeKey(int32(l.From), int32(l.To))
		if seen[key] {
			return nil, fmt.Errorf("topology: duplicate link %d-%d", l.From, l.To)
		}
		seen[key] = true
		u, v := int32(l.From), int32(l.To)
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edge{u, v, l.Lat})
	}
	return build(n, edges), nil
}

// TableLinks converts a spec's topology_table rows ([from, to] or
// [from, to, lat]) into Links; omitted latencies default to 1.
func TableLinks(rows [][]float64) ([]Link, error) {
	links := make([]Link, 0, len(rows))
	for i, row := range rows {
		if len(row) != 2 && len(row) != 3 {
			return nil, fmt.Errorf("topology: link %d has %d elements, want [from, to] or [from, to, latency]", i, len(row))
		}
		l := Link{From: int(row[0]), To: int(row[1]), Lat: 1}
		if float64(l.From) != row[0] || float64(l.To) != row[1] {
			return nil, fmt.Errorf("topology: link %d endpoints must be integers, got %v-%v", i, row[0], row[1])
		}
		if len(row) == 3 {
			l.Lat = row[2]
		}
		links = append(links, l)
	}
	return links, nil
}
