// Package graph provides the directed-graph algorithms of Algorithm 1's
// reference in the core tests (shortest directed cycle, Section 5 of the
// paper; OptMC itself is an arc cover) and assorted analyses:
// Dijkstra single-source shortest paths, BFS, shortest directed cycle in
// unweighted and weighted digraphs, and Tarjan's strongly connected
// components.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Typed input errors, matching the taxonomy of the core package: bad
// input is reported, never panicked on, so a malformed graph built from
// untrusted data degrades the caller instead of the process.
var (
	// ErrBadVertex marks a vertex index outside [0, N).
	ErrBadVertex = errors.New("graph: vertex out of range")
	// ErrBadWeight marks an edge weight the shortest-path routines
	// cannot process: NaN or negative.
	ErrBadWeight = errors.New("graph: invalid edge weight")
)

// Digraph is a directed graph on vertices 0..N−1 with adjacency lists.
// Edges may carry weights; unweighted algorithms ignore them.
type Digraph struct {
	n   int
	adj [][]Edge
}

// Edge is a directed edge to To with weight W.
type Edge struct {
	To int
	W  float64
}

// NewDigraph returns an empty digraph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int {
	m := 0
	for _, es := range g.adj {
		m += len(es)
	}
	return m
}

// AddEdge appends the edge u→v with weight 1. Out-of-range endpoints
// return ErrBadVertex and leave the graph unchanged.
func (g *Digraph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge appends the edge u→v with weight w. Out-of-range
// endpoints return ErrBadVertex; NaN or negative weights (which the
// shortest-path routines cannot process) return ErrBadWeight. The graph
// is unchanged on error.
func (g *Digraph) AddWeightedEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n {
		return fmt.Errorf("%w: source %d not in [0,%d)", ErrBadVertex, u, g.n)
	}
	if v < 0 || v >= g.n {
		return fmt.Errorf("%w: target %d not in [0,%d)", ErrBadVertex, v, g.n)
	}
	if math.IsNaN(w) || w < 0 {
		return fmt.Errorf("%w: %v on edge %d→%d", ErrBadWeight, w, u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
	return nil
}

// Neighbors returns the adjacency list of u (shared, not a copy); nil
// for an out-of-range vertex.
func (g *Digraph) Neighbors(u int) []Edge {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.adj[u]
}

// HasEdge reports whether an edge u→v exists (false for out-of-range
// vertices).
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// SortEdges orders every adjacency list by target vertex; useful for
// deterministic traversal in tests.
func (g *Digraph) SortEdges() {
	for _, es := range g.adj {
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	}
}
