package experiments

import (
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
)

func TestGenerateTraceShape(t *testing.T) {
	cfg := traceConfig{Keys: 10, EntriesPerKey: 20, Ops: 500, ZipfS: 0.99, LookupFrac: 0.6}
	tr, err := generateTrace(stats.NewRNG(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Initial) != cfg.Keys {
		t.Fatalf("initial keys %d, want %d", len(tr.Initial), cfg.Keys)
	}
	seen := make(map[entry.Entry]bool)
	for k, pop := range tr.Initial {
		if len(pop) != cfg.EntriesPerKey {
			t.Fatalf("key %d initial population %d, want %d", k, len(pop), cfg.EntriesPerKey)
		}
		for _, v := range pop {
			if seen[v] {
				t.Fatalf("entry %q appears in two keys' populations", v)
			}
			seen[v] = true
		}
	}
	if len(tr.Ops) != cfg.Ops {
		t.Fatalf("ops %d, want %d", len(tr.Ops), cfg.Ops)
	}

	// Replay the population arithmetic: every delete must target a live
	// entry of its key; adds introduce fresh entries.
	live := make([]map[entry.Entry]bool, cfg.Keys)
	for k, pop := range tr.Initial {
		live[k] = make(map[entry.Entry]bool, len(pop))
		for _, v := range pop {
			live[k][v] = true
		}
	}
	counts := map[OpKind]int{}
	for _, op := range tr.Ops {
		counts[op.Kind]++
		switch op.Kind {
		case OpAdd:
			if live[op.Key][op.Entry] {
				t.Fatalf("add of already-live entry %q", op.Entry)
			}
			live[op.Key][op.Entry] = true
		case OpDelete:
			if !live[op.Key][op.Entry] {
				t.Fatalf("delete of non-live entry %q for key %d", op.Entry, op.Key)
			}
			delete(live[op.Key], op.Entry)
		}
	}
	if counts[OpLookup] == 0 || counts[OpAdd] == 0 || counts[OpDelete] == 0 {
		t.Fatalf("op mix missing a kind: %v", counts)
	}
	frac := float64(counts[OpLookup]) / float64(cfg.Ops)
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("lookup fraction %.2f far from configured 0.6", frac)
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := traceConfig{Keys: 5, EntriesPerKey: 10, Ops: 200, ZipfS: 1.1, LookupFrac: 0.5}
	a, err := generateTrace(stats.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateTrace(stats.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestZipfSkewAndUniform(t *testing.T) {
	rng := stats.NewRNG(3)
	z := stats.NewZipf(100, 0.99)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(rng)-1]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Fatalf("zipf head not dominant: head=%d mid=%d tail=%d", counts[0], counts[50], counts[99])
	}
	// s=0 degenerates to uniform: head and tail within a loose factor.
	u := stats.NewZipf(100, 0)
	counts = make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[u.Sample(rng)-1]++
	}
	if counts[0] > 3*counts[99]+30 {
		t.Fatalf("s=0 not uniform-ish: head=%d tail=%d", counts[0], counts[99])
	}
}
