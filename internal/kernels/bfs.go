package kernels

import "tenways/internal/workload"

// BFS runs a level-synchronous breadth-first search from src and returns
// the distance of every vertex (-1 if unreachable).
func BFS(g *workload.Graph, src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int{src}
	for level := 1; len(frontier) > 0; level++ {
		// Seed the next frontier's capacity with the current one's size —
		// the usual growth estimate for level-synchronous BFS.
		next := make([]int, 0, len(frontier))
		for _, u := range frontier {
			for _, v := range g.Adj[u] {
				if dist[v] == -1 {
					dist[v] = level
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}
