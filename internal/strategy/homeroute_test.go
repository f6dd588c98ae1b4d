package strategy_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/plstest"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

// callLog is a client caller that records the server of every call the
// driver makes, in order. n, when set, is the cluster size it reports
// in place of the inner caller's: a client whose view is stale.
type callLog struct {
	inner   transport.Caller
	n       int
	servers []int
}

func (c *callLog) NumServers() int {
	if c.n > 0 {
		return c.n
	}
	return c.inner.NumServers()
}

func (c *callLog) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.servers = append(c.servers, server)
	return c.inner.Call(ctx, server, msg)
}

// take returns the servers called since the last take.
func (c *callLog) take() []int {
	s := c.servers
	c.servers = nil
	return s
}

var homeSchemes = []wire.Config{
	{Scheme: wire.Hash, Y: 2, Seed: 7},
	{Scheme: wire.MultiProbe, Y: 2, Seed: 7},
}

// A Hash-y or MultiProbe-y add or delete goes first to one of its
// entry's homes; with every server up, that home is the only server the
// client calls.
func TestUpdateStartsAtAHome(t *testing.T) {
	for _, cfg := range homeSchemes {
		t.Run(cfg.String(), func(t *testing.T) {
			const n = 5
			ctx := context.Background()
			rng := stats.NewRNG(31)
			cl := cluster.New(n, rng.Split())
			drv := strategy.MustNew(cfg, rng.Split())
			log := &callLog{inner: cl.Caller()}
			if err := drv.Place(ctx, log, "k", entry.Synthetic(8)); err != nil {
				t.Fatalf("Place: %v", err)
			}
			log.take()
			for i := 0; i < 40; i++ {
				v := fmt.Sprintf("x%d", i)
				homes := node.HomesFor(v, cfg, n, nil)
				if err := drv.Add(ctx, log, "k", v); err != nil {
					t.Fatalf("Add %s: %v", v, err)
				}
				if got := log.take(); len(got) != 1 || !slices.Contains(homes, got[0]) {
					t.Fatalf("add %s called %v, want one call to a home of %v", v, got, homes)
				}
				if err := drv.Delete(ctx, log, "k", v); err != nil {
					t.Fatalf("Delete %s: %v", v, err)
				}
				if got := log.take(); len(got) != 1 || !slices.Contains(homes, got[0]) {
					t.Fatalf("delete %s called %v, want one call to a home of %v", v, got, homes)
				}
			}
		})
	}
}

// A home whose circuit is open is tried after every healthy server; the
// entry's other home, healthy, still leads.
func TestUpdateTriesAnOpenHomeLast(t *testing.T) {
	const n, seed = 5, 41
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
	v := "x0"
	for i := 1; len(node.HomesFor(v, cfg, n, nil)) < 2; i++ {
		v = fmt.Sprintf("x%d", i)
	}
	homes := node.HomesFor(v, cfg, n, nil)
	sel := selector.New(n, selector.Options{})
	for !sel.Health()[homes[0]].Open {
		sel.RecordFailure(homes[0])
	}
	drv := strategy.MustNew(cfg, stats.NewRNG(seed))
	drv.SetSelector(sel)
	cl := cluster.New(n, stats.NewRNG(1))
	for i := 0; i < n; i++ {
		cl.Fail(i) // every call is refused, so the whole route shows
	}
	log := &callLog{inner: cl.Caller()}
	if err := drv.Add(context.Background(), log, "k", v); !errors.Is(err, strategy.ErrNoLiveServers) {
		t.Fatalf("add with every server down = %v, want ErrNoLiveServers", err)
	}
	want := []int{homes[1]}
	for _, s := range stats.NewRNG(seed).Perm(n) {
		if !slices.Contains(homes, s) {
			want = append(want, s)
		}
	}
	want = append(want, homes[0])
	if got := log.take(); !slices.Equal(got, want) {
		t.Fatalf("route %v, want %v (homes %v, %d open)", got, want, homes, homes[0])
	}
}

// A client that has not learned of a join (its view says n = 4, the
// nodes have committed n = 5) computes some entries' homes wrongly; the
// server it reaches recomputes them from the committed view, so every
// add and delete still lands on exactly the nodes' homes.
func TestUpdateWithAStaleViewLandsOnTheNodesHomes(t *testing.T) {
	for _, cfg := range homeSchemes {
		t.Run(cfg.String(), func(t *testing.T) {
			ctx := context.Background()
			rng := stats.NewRNG(43)
			cl := cluster.New(4, rng.Split())
			drv := strategy.MustNew(cfg, rng.Split())
			placed := entry.Synthetic(12)
			if err := drv.Place(ctx, cl.Caller(), "k", placed); err != nil {
				t.Fatalf("Place: %v", err)
			}
			if _, err := cl.Join(ctx, rng.Split()); err != nil {
				t.Fatalf("Join: %v", err)
			}
			live := entry.NewSet(0)
			for _, v := range placed {
				live.Add(v)
			}
			stale := &callLog{inner: cl.Caller(), n: 4}
			misrouted := 0
			for i := 0; i < 30; i++ {
				v := fmt.Sprintf("x%d", i)
				if err := drv.Add(ctx, stale, "k", v); err != nil {
					t.Fatalf("Add %s: %v", v, err)
				}
				live.Add(v)
				if !slices.Contains(node.HomesFor(v, cfg, 5, nil), stale.take()[0]) {
					misrouted++
				}
				if i%3 == 0 {
					gone := placed[i/3]
					if err := drv.Delete(ctx, stale, "k", gone); err != nil {
						t.Fatalf("Delete %s: %v", gone, err)
					}
					live.Remove(gone)
					stale.take()
				}
			}
			if misrouted == 0 {
				t.Fatal("the stale view never picked a server that is not a home: nothing was tested")
			}
			view := plstest.Observe(cl, "k", cfg)
			plstest.Assert(t, "after updates from a stale view", view.Check(live))
			plstest.Assert(t, "coverage after updates from a stale view", view.CheckCoverage(live))
		})
	}
}

// A ZoneSpread config's homes depend on a topology the client does not
// have, so its updates keep the seeded route: each starts at the first
// server of the permutation a reference RNG draws.
func TestZoneSpreadUpdateKeepsTheSeededRoute(t *testing.T) {
	const n, seed = 5, 47
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7, ZoneSpread: true}
	cl := cluster.New(n, stats.NewRNG(1))
	drv := strategy.MustNew(cfg, stats.NewRNG(seed))
	ref := stats.NewRNG(seed)
	log := &callLog{inner: cl.Caller()}
	if err := drv.Place(ctx, log, "k", entry.Synthetic(8)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got, want := log.take(), ref.Perm(n)[:1]; !slices.Equal(got, want) {
		t.Fatalf("place called %v, want %v", got, want)
	}
	for i := 0; i < 40; i++ {
		v := fmt.Sprintf("x%d", i/2)
		update := drv.Add
		if i%2 == 1 {
			update = drv.Delete
		}
		if err := update(ctx, log, "k", v); err != nil {
			t.Fatalf("update %d of %s: %v", i, v, err)
		}
		if got, want := log.take(), ref.Perm(n)[:1]; !slices.Equal(got, want) {
			t.Fatalf("update %d of %s called %v, want the seeded %v", i, v, got, want)
		}
	}
}

// Routing an update to a home reorders its route but still draws its
// seeded permutation, so the driver's RNG advances as it did and every
// lookup after an update probes in the order it did: through a seeded
// run of interleaved adds, deletes and lookups, each lookup visits a
// prefix of the permutation a reference RNG draws, one per operation.
func TestUpdatesKeepTheLookupProbeOrders(t *testing.T) {
	for _, cfg := range homeSchemes {
		t.Run(cfg.String(), func(t *testing.T) {
			const n, seed = 6, 53
			ctx := context.Background()
			cl := cluster.New(n, stats.NewRNG(2))
			drv := strategy.MustNew(cfg, stats.NewRNG(seed))
			ref, ops := stats.NewRNG(seed), stats.NewRNG(5)
			log := &callLog{inner: cl.Caller()}
			if err := drv.Place(ctx, log, "k", entry.Synthetic(16)); err != nil {
				t.Fatalf("Place: %v", err)
			}
			ref.Perm(n)
			var added []string
			lookups := 0
			for i := 0; i < 90; i++ {
				log.take()
				perm := ref.Perm(n)
				switch op := ops.IntN(3); {
				case op == 0 || len(added) == 0:
					v := fmt.Sprintf("x%d", i)
					if err := drv.Add(ctx, log, "k", v); err != nil {
						t.Fatalf("Add: %v", err)
					}
					added = append(added, v)
				case op == 1:
					v := added[ops.IntN(len(added))]
					if err := drv.Delete(ctx, log, "k", v); err != nil {
						t.Fatalf("Delete: %v", err)
					}
				default:
					res, err := drv.PartialLookup(ctx, log, "k", 10)
					if err != nil {
						t.Fatalf("PartialLookup: %v", err)
					}
					if got := log.take(); len(got) != res.Contacted || !slices.Equal(got, perm[:len(got)]) {
						t.Fatalf("op %d: lookup probed %v, want a prefix of the seeded %v", i, got, perm)
					}
					lookups++
				}
			}
			if lookups < 20 {
				t.Fatalf("only %d lookups in the run", lookups)
			}
		})
	}
}

// noServers is a caller for a cluster with no members.
type noServers struct{}

func (noServers) NumServers() int { return 0 }

func (noServers) Call(context.Context, int, wire.Message) (wire.Message, error) {
	return nil, errors.New("noServers: called")
}

// An update with no server to try fails with ErrNoLiveServers itself,
// not one wrapping a nil cause ("%!w(<nil>)").
func TestUpdateWithNoRouteIsErrNoLiveServers(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.Hash, Y: 2},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.FullReplication},
	} {
		drv := strategy.MustNew(cfg, stats.NewRNG(1))
		err := drv.Add(context.Background(), noServers{}, "k", "v")
		if !errors.Is(err, strategy.ErrNoLiveServers) || err.Error() != strategy.ErrNoLiveServers.Error() {
			t.Fatalf("%v: add with no servers = %q, want %q", cfg, err, strategy.ErrNoLiveServers)
		}
	}
}
