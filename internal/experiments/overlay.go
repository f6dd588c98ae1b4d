package experiments

// The Sec. 7.2 variation: servers with limited reachability.
// Participants form an application-level overlay network (as in
// Gnutella-style systems); a client can only reach lookup servers
// within a bounded hop count d. Below are the overlay graph
// (deterministic generators, BFS hop distances), the placement problem
// the paper states — "making sure the data is placed on a set of
// servers such that for each client i there exists a server s where
// the distance between i and s is bounded by a hop count d" — solved
// with a greedy dominating-set heuristic, a caller that enforces the
// hop limit so the ordinary strategy drivers run unmodified under
// restricted reachability, and ext-overlay, the study that uses them.

import (
	"context"
	"fmt"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// graph is an undirected overlay over participants 0..M-1.
type graph struct {
	adj [][]int
}

// newGraph returns an edgeless graph over m participants.
func newGraph(m int) *graph {
	if m <= 0 {
		panic("experiments: newGraph requires m > 0")
	}
	return &graph{adj: make([][]int, m)}
}

// Size returns the number of participants.
func (g *graph) Size() int { return len(g.adj) }

// AddEdge links a and b (idempotent; self-loops ignored).
func (g *graph) AddEdge(a, b int) {
	if a == b || a < 0 || b < 0 || a >= len(g.adj) || b >= len(g.adj) {
		return
	}
	for _, x := range g.adj[a] {
		if x == b {
			return
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// Neighbors returns the adjacency list of a participant.
func (g *graph) Neighbors(p int) []int {
	out := make([]int, len(g.adj[p]))
	copy(out, g.adj[p])
	return out
}

// newRing builds a connected ring of m participants with `shortcuts`
// additional random chords — a small-world-style overlay. It is
// deterministic given the RNG.
func newRing(m, shortcuts int, rng *stats.RNG) *graph {
	g := newGraph(m)
	for i := 0; i < m; i++ {
		g.AddEdge(i, (i+1)%m)
	}
	for s := 0; s < shortcuts; s++ {
		g.AddEdge(rng.IntN(m), rng.IntN(m))
	}
	return g
}

// newRandom builds a connected random overlay: a random spanning tree
// (guaranteeing connectivity) plus extra random edges with probability
// p per pair, approximated by m·p·(m-1)/2 … bounded extra edges.
func newRandom(m int, extraEdges int, rng *stats.RNG) *graph {
	g := newGraph(m)
	// Random spanning tree: connect each node to a random earlier one.
	perm := rng.Perm(m)
	for i := 1; i < m; i++ {
		g.AddEdge(perm[i], perm[rng.IntN(i)])
	}
	for e := 0; e < extraEdges; e++ {
		g.AddEdge(rng.IntN(m), rng.IntN(m))
	}
	return g
}

// Hops returns the BFS hop distance from `from` to every participant
// (-1 if unreachable).
func (g *graph) Hops(from int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.adj[cur] {
			if dist[next] == -1 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

// WithinHops returns the participants within d hops of `from`
// (including `from` itself).
func (g *graph) WithinHops(from, d int) []int {
	dist := g.Hops(from)
	var out []int
	for p, h := range dist {
		if h >= 0 && h <= d {
			out = append(out, p)
		}
	}
	return out
}

// Covered reports, for every participant, whether some server in
// `servers` lies within d hops.
func (g *graph) Covered(servers []int, d int) []bool {
	out := make([]bool, len(g.adj))
	for _, s := range servers {
		if s < 0 || s >= len(g.adj) {
			continue
		}
		for _, p := range g.WithinHops(s, d) {
			out[p] = true
		}
	}
	return out
}

// Uncovered returns the participants with no server within d hops.
func (g *graph) Uncovered(servers []int, d int) []int {
	covered := g.Covered(servers, d)
	var out []int
	for p, ok := range covered {
		if !ok {
			out = append(out, p)
		}
	}
	return out
}

// greedyPlacement solves the Sec. 7.2 placement problem heuristically:
// choose a small set of participants to host lookup servers such that
// every participant has a server within d hops. This is minimum
// dominating set (NP-hard), so it greedily picks the participant
// covering the most still-uncovered participants. The result is
// deterministic.
func greedyPlacement(g *graph, d int) []int {
	m := g.Size()
	if d < 0 {
		d = 0
	}
	covered := make([]bool, m)
	remaining := m
	// Precompute the d-ball of every participant.
	balls := make([][]int, m)
	for p := 0; p < m; p++ {
		balls[p] = g.WithinHops(p, d)
	}
	var servers []int
	for remaining > 0 {
		best, bestGain := -1, -1
		for p := 0; p < m; p++ {
			gain := 0
			for _, q := range balls[p] {
				if !covered[q] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = p, gain
			}
		}
		if bestGain <= 0 {
			break // disconnected leftovers (cannot happen on connected graphs)
		}
		servers = append(servers, best)
		for _, q := range balls[best] {
			if !covered[q] {
				covered[q] = true
				remaining--
			}
		}
	}
	return servers
}

// meanServerDistance returns the average hop distance from each
// participant to its nearest server — the client-side lookup latency
// proxy in the Sec. 7.2 tradeoff.
func meanServerDistance(g *graph, servers []int) (float64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("experiments: no servers")
	}
	m := g.Size()
	best := make([]int, m)
	for i := range best {
		best[i] = -1
	}
	for _, s := range servers {
		for p, h := range g.Hops(s) {
			if h >= 0 && (best[p] == -1 || h < best[p]) {
				best[p] = h
			}
		}
	}
	sum := 0
	for p, h := range best {
		if h < 0 {
			return 0, fmt.Errorf("experiments: participant %d cannot reach any server", p)
		}
		sum += h
	}
	return float64(sum) / float64(m), nil
}

// restrictedCaller enforces a client's hop-limited view of the
// cluster: calls to servers beyond the hop limit fail with
// transport.ErrServerDown, so the unmodified strategy drivers fall
// over to reachable servers exactly as they do under real failures.
type restrictedCaller struct {
	inner     transport.Caller
	reachable []bool
}

var _ transport.Caller = (*restrictedCaller)(nil)

// restrict builds the hop-limited view of a client at overlay
// participant `client`. serverNodes[i] is the overlay participant
// hosting lookup server i of the inner caller.
func restrict(inner transport.Caller, g *graph, client int, serverNodes []int, d int) (*restrictedCaller, error) {
	if len(serverNodes) != inner.NumServers() {
		return nil, fmt.Errorf("experiments: %d server nodes for %d servers", len(serverNodes), inner.NumServers())
	}
	if client < 0 || client >= g.Size() {
		return nil, fmt.Errorf("experiments: client %d outside graph of %d participants", client, g.Size())
	}
	dist := g.Hops(client)
	reachable := make([]bool, len(serverNodes))
	for i, p := range serverNodes {
		if p < 0 || p >= g.Size() {
			return nil, fmt.Errorf("experiments: server %d hosted at invalid participant %d", i, p)
		}
		reachable[i] = dist[p] >= 0 && dist[p] <= d
	}
	return &restrictedCaller{inner: inner, reachable: reachable}, nil
}

// NumServers returns the underlying cluster size (unreachable servers
// still exist; they just cannot be contacted).
func (r *restrictedCaller) NumServers() int { return r.inner.NumServers() }

// Reachable reports whether the client can contact server i.
func (r *restrictedCaller) Reachable(i int) bool {
	return i >= 0 && i < len(r.reachable) && r.reachable[i]
}

// ReachableCount returns how many servers the client can contact.
func (r *restrictedCaller) ReachableCount() int {
	c := 0
	for _, ok := range r.reachable {
		if ok {
			c++
		}
	}
	return c
}

// Call forwards to the inner transport if the server is within the
// client's hop limit.
func (r *restrictedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if server < 0 || server >= len(r.reachable) {
		return nil, fmt.Errorf("experiments: server %d out of range", server)
	}
	if !r.reachable[server] {
		return nil, fmt.Errorf("%w: server %d beyond hop limit", transport.ErrServerDown, server)
	}
	return r.inner.Call(ctx, server, msg)
}

// ExtOverlayTradeoff measures the Sec. 7.2 tradeoff in choosing the
// hop-count limit d on an overlay of 120 participants: a small d
// keeps client-to-server distances short (cheap lookups) but requires
// many server replicas to cover everyone (expensive updates, since a
// place/add broadcast reaches every server); a large d needs few
// servers but pushes clients farther away.
func ExtOverlayTradeoff(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		participants = 120
		h            = 60
		target       = 5
	)
	t := &Table{
		ID:      "ext-overlay",
		Title:   fmt.Sprintf("Hop-limit tradeoff on a %d-participant overlay (Round-2, %d entries, t=%d)", participants, h, target),
		XLabel:  "d",
		Columns: []string{"Servers", "MeanHops", "UpdateMsgs", "Satisfied%", "ProbesPerLookup"},
		Notes: []string{
			"small d: short client-server distance but many servers (update broadcasts grow);",
			"large d: few servers but distant clients (Sec. 7.2)",
		},
	}
	g := newRandom(participants, participants/2, rng.Split())
	for d := 1; d <= 5; d++ {
		serverNodes := greedyPlacement(g, d)
		n := len(serverNodes)
		meanHops, err := meanServerDistance(g, serverNodes)
		if err != nil {
			return nil, err
		}
		y := 2
		if y > n {
			y = n
		}
		inst, err := place(rng, wire.Config{Scheme: wire.RoundRobin, Y: y}, n, entry.Synthetic(h))
		if err != nil {
			return nil, err
		}
		cl, drv, ctx := inst.cluster, inst.driver, ctxB()

		// Update cost: one add through the coordinator (y stores) plus
		// the client request; Round-y deletes broadcast. We measure an
		// add+delete pair.
		cl.ResetMessages()
		if err := drv.Add(ctx, cl.Caller(), "k", "probe-entry"); err != nil {
			return nil, err
		}
		if err := drv.Delete(ctx, cl.Caller(), "k", "probe-entry"); err != nil {
			return nil, err
		}
		updateMsgs := float64(cl.Messages()) / 2

		// Lookup behavior from hop-limited clients spread around the
		// overlay.
		satisfied, probes, lookups := 0, 0, 0
		for c := 0; c < min(fid.Runs*2, participants); c++ {
			client := rng.IntN(participants)
			rc, err := restrict(cl.Caller(), g, client, serverNodes, d)
			if err != nil {
				return nil, err
			}
			res, err := drv.PartialLookup(ctx, rc, "k", target)
			if err != nil {
				continue // client with no reachable server
			}
			lookups++
			probes += res.Contacted
			if res.Satisfied(target) {
				satisfied++
			}
		}
		satPct, probeAvg := 0.0, 0.0
		if lookups > 0 {
			satPct = 100 * float64(satisfied) / float64(lookups)
			probeAvg = float64(probes) / float64(lookups)
		}
		t.AddRow(fmt.Sprintf("%d", d), float64(n), meanHops, updateMsgs, satPct, probeAvg)
	}
	return t, nil
}
