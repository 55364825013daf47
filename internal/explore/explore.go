// Package explore enumerates the configuration graph of a deterministic
// system in which a scheduler picks which of n nodes takes the next step.
// It is the one state-space search behind the model checkers:
// internal/bivalence (Theorem 2.1, Lemmas 2.2–2.3) and internal/stickybit
// (the §1.2 contrast) differ only in their configurations and step
// functions.
//
// A configuration is any comparable value that fully determines the
// system's future, so equal values are the same configuration and the
// search deduplicates them through a map keyed by the value itself. The
// graph is stored flat: configurations in discovery order, and n successor
// indices per expanded configuration.
package explore

// Graph is the explored configuration graph from one root.
type Graph[C comparable] struct {
	configs []C
	n       int
	// succ[i*n+node] is the successor of configuration i under node's
	// step, for the expanded configurations i < len(succ)/n.
	succ []int32
}

// Explore builds the graph reachable from c0, where step(c, node) is the
// configuration after node's next step in c (c itself when the step
// changes nothing). Configurations are expanded breadth first in discovery
// order, and expansion stops once more than max configurations are known;
// the graph is then truncated and the configurations not yet expanded form
// its frontier.
func Explore[C comparable](c0 C, n int, step func(C, int) C, max int) *Graph[C] {
	g := &Graph[C]{configs: []C{c0}, n: n}
	index := map[C]int32{c0: 0}
	for i := 0; i < len(g.configs) && len(g.configs) <= max; i++ {
		c := g.configs[i]
		for node := 0; node < n; node++ {
			nc := step(c, node)
			j, ok := index[nc]
			if !ok {
				j = int32(len(g.configs))
				index[nc] = j
				g.configs = append(g.configs, nc)
			}
			g.succ = append(g.succ, j)
		}
	}
	return g
}

// Size returns the number of explored configurations.
func (g *Graph[C]) Size() int { return len(g.configs) }

// Truncated reports whether exploration stopped at the configuration bound
// with a frontier left unexpanded.
func (g *Graph[C]) Truncated() bool { return g.expanded() < len(g.configs) }

// Root returns the initial configuration's index (always 0).
func (g *Graph[C]) Root() int { return 0 }

// Config returns configuration i.
func (g *Graph[C]) Config(i int) C { return g.configs[i] }

// Expanded reports whether configuration i's successors are known, i.e.
// whether it lies inside the truncation frontier.
func (g *Graph[C]) Expanded(i int) bool { return i < g.expanded() }

func (g *Graph[C]) expanded() int { return len(g.succ) / g.n }

// Succ returns the successor of configuration i under a step of node; a
// frontier configuration is its own successor.
func (g *Graph[C]) Succ(i, node int) int {
	if !g.Expanded(i) {
		return i
	}
	return int(g.succ[i*g.n+node])
}

// Reach returns, for every configuration i, the union of label(j) over
// all configurations j reachable from i (i included) through expanded
// configurations. It is one worklist pass over the reverse edges: a
// configuration is revisited only when its set grows, so at most once per
// label bit.
func (g *Graph[C]) Reach(label func(i int) uint8) []uint8 {
	set := make([]uint8, len(g.configs))
	// Reverse edges in compressed form: the predecessors of j are
	// pred[start[j]:start[j+1]]. Self-loops carry nothing and are skipped.
	start := make([]int32, len(g.configs)+1)
	for e, j := range g.succ {
		if int(j) != e/g.n {
			start[j+1]++
		}
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	pred := make([]int32, start[len(g.configs)])
	fill := append([]int32(nil), start[:len(g.configs)]...)
	for e, j := range g.succ {
		if i := int32(e / g.n); i != j {
			pred[fill[j]] = i
			fill[j]++
		}
	}
	work := make([]int32, 0, len(g.configs))
	for i := range set {
		if set[i] = label(i); set[i] != 0 {
			work = append(work, int32(i))
		}
	}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		for _, i := range pred[start[j]:start[j+1]] {
			if s := set[i] | set[j]; s != set[i] {
				set[i] = s
				work = append(work, i)
			}
		}
	}
	return set
}

// FairCycle looks for a fair computation in which node v never steps and
// stuck holds forever: a strongly connected set of configurations,
// reachable from the root by steps of nodes other than v, inside which
// every node other than v takes at least one step (a step that changes
// nothing counts — it is still an operation) and some configuration
// satisfies stuck. It returns a configuration of the first such set in
// Tarjan completion order, the one with the smallest index, or -1. A
// truncated graph always yields -1, since its frontier's edges are
// unknown.
func (g *Graph[C]) FairCycle(v int, stuck func(i int) bool) int {
	if g.Truncated() {
		return -1
	}
	all := uint64(1)<<uint(g.n) - 1
	fair := all &^ (1 << uint(v))
	// index[i] is 0 while i is unvisited, its 1-based DFS number while i
	// is on the Tarjan stack, and −1 once its component is complete.
	index := make([]int32, len(g.configs))
	low := make([]int32, len(g.configs))
	type frame struct{ cfg, node int32 }
	frames := []frame{{0, 0}}
	stack := []int32{0}
	counter := int32(1)
	index[0], low[0] = counter, counter
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if int(f.node) < g.n {
			node := int(f.node)
			f.node++
			if node == v {
				continue
			}
			j := g.Succ(int(f.cfg), node)
			switch {
			case index[j] == 0:
				counter++
				index[j], low[j] = counter, counter
				stack = append(stack, int32(j))
				frames = append(frames, frame{int32(j), 0})
			case index[j] > 0 && index[j] < low[f.cfg]:
				low[f.cfg] = index[j]
			}
			continue
		}
		i := f.cfg
		frames = frames[:len(frames)-1]
		if len(frames) > 0 {
			if p := frames[len(frames)-1].cfg; low[i] < low[p] {
				low[p] = low[i]
			}
		}
		if low[i] != index[i] {
			continue
		}
		// i roots a component: its members are the stack above i.
		k := len(stack) - 1
		for stack[k] != i {
			k--
		}
		members := stack[k:]
		stack = stack[:k]
		for _, m := range members {
			index[m] = -1
			low[m] = i // component id, for the membership test below
		}
		var steps uint64
		rep, anyStuck := -1, false
		for _, m := range members {
			for w := 0; w < g.n; w++ {
				if j := g.Succ(int(m), w); w != v && index[j] == -1 && low[j] == i {
					steps |= 1 << uint(w)
				}
			}
			anyStuck = anyStuck || stuck(int(m))
			if rep < 0 || int(m) < rep {
				rep = int(m)
			}
		}
		if steps != 0 && steps == fair && anyStuck {
			return rep
		}
	}
	return -1
}

// Path finds a shortest path from configuration from on which node p
// takes at least one step and whose last configuration satisfies accept
// (checked only once p has stepped). Steps that change nothing are
// skipped, except p's own, which count as its step. It returns the
// configuration indices of the path, starting at from, and ok. Frontier
// configurations end a path: their successors are unknown.
func (g *Graph[C]) Path(from, p int, accept func(int) bool) ([]int, bool) {
	// Search items are (cfg, stepped) pairs, encoded as cfg<<1 | stepped
	// and tracked in flat slices: the search touches every configuration
	// at most twice. prev[x] holds the encoded predecessor + 1 (0 = unset,
	// i.e. the start item).
	n2 := 2 * len(g.configs)
	seen := make([]bool, n2)
	prev := make([]int32, n2)
	start := from << 1
	queue := make([]int32, 1, 64)
	queue[0] = int32(start)
	seen[start] = true
	for qi := 0; qi < len(queue); qi++ {
		cur := int(queue[qi])
		cfg, stepped := cur>>1, cur&1 == 1
		if stepped && accept(cfg) {
			var rev []int
			for at := cur; ; {
				rev = append(rev, at>>1)
				if prev[at] == 0 {
					break
				}
				at = int(prev[at]) - 1
			}
			path := make([]int, len(rev))
			for k := range rev {
				path[k] = rev[len(rev)-1-k]
			}
			return path, true
		}
		if !g.Expanded(cfg) {
			continue
		}
		for node := 0; node < g.n; node++ {
			j := g.Succ(cfg, node)
			if j == cfg && node != p {
				continue
			}
			next := j << 1
			if stepped || node == p {
				next |= 1
			}
			if !seen[next] {
				seen[next] = true
				prev[next] = int32(cur + 1)
				queue = append(queue, int32(next))
			}
		}
	}
	return nil, false
}
