package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
)

func defaultConfig(t *testing.T, updates int) StreamConfig {
	t.Helper()
	lt, err := DefaultLifetime("exp", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	return StreamConfig{
		MeanArrivalGap: 10,
		SteadyState:    100,
		Lifetime:       lt,
		Updates:        updates,
	}
}

func TestGenerateBasicShape(t *testing.T) {
	s, err := Generate(stats.NewRNG(1), defaultConfig(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Initial) != 100 {
		t.Fatalf("initial population %d, want 100", len(s.Initial))
	}
	if len(s.Events) != 500 {
		t.Fatalf("events %d, want 500", len(s.Events))
	}
	// Events are in nondecreasing time order with positive times.
	prev := 0.0
	for i, ev := range s.Events {
		if ev.Time < prev {
			t.Fatalf("event %d out of order: %v < %v", i, ev.Time, prev)
		}
		if ev.Time < 0 {
			t.Fatalf("negative event time %v", ev.Time)
		}
		if ev.Kind != OpAdd && ev.Kind != OpDelete {
			t.Fatalf("event %d has kind %v", i, ev.Kind)
		}
		if ev.Entry == "" {
			t.Fatalf("event %d has empty entry", i)
		}
		prev = ev.Time
	}
}

func TestGenerateDeleteMatchesPriorAdd(t *testing.T) {
	s, err := Generate(stats.NewRNG(2), defaultConfig(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[entry.Entry]bool, 200)
	for _, v := range s.Initial {
		if live[v] {
			t.Fatalf("duplicate initial entry %s", v)
		}
		live[v] = true
	}
	for i, ev := range s.Events {
		switch ev.Kind {
		case OpAdd:
			if live[ev.Entry] {
				t.Fatalf("event %d adds already-live %s", i, ev.Entry)
			}
			live[ev.Entry] = true
		case OpDelete:
			if !live[ev.Entry] {
				t.Fatalf("event %d deletes non-live %s", i, ev.Entry)
			}
			delete(live, ev.Entry)
		}
	}
}

func TestGenerateSteadyState(t *testing.T) {
	// Population should hover around the steady state; average over
	// the replay should be within 20% of h for both distributions.
	for _, kind := range []string{"exp", "zipf"} {
		lt, err := DefaultLifetime(kind, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Generate(stats.NewRNG(3), StreamConfig{
			MeanArrivalGap: 10, SteadyState: 100, Lifetime: lt, Updates: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		pops := s.population()
		sum := 0
		for _, p := range pops {
			sum += p
			if p < 0 {
				t.Fatalf("%s: negative population", kind)
			}
		}
		avg := float64(sum) / float64(len(pops))
		if avg < 80 || avg > 120 {
			t.Fatalf("%s: average population %v, want ~100", kind, avg)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := stats.NewRNG(4)
	lt, _ := DefaultLifetime("exp", 10, 100)
	bad := []StreamConfig{
		{MeanArrivalGap: 0, SteadyState: 10, Lifetime: lt, Updates: 1},
		{MeanArrivalGap: 10, SteadyState: 0, Lifetime: lt, Updates: 1},
		{MeanArrivalGap: 10, SteadyState: 10, Lifetime: nil, Updates: 1},
		{MeanArrivalGap: 10, SteadyState: 10, Lifetime: lt, Updates: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(rng, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDefaultLifetime(t *testing.T) {
	for _, tc := range []struct {
		kind string
		mean float64
	}{{"exp", 1000}, {"zipf", 1000}} {
		lt, err := DefaultLifetime(tc.kind, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lt.Mean()-tc.mean) > 1 {
			t.Fatalf("%s mean = %v, want %v", tc.kind, lt.Mean(), tc.mean)
		}
	}
	if _, err := DefaultLifetime("weibull", 10, 100); err == nil {
		t.Fatal("unknown lifetime kind accepted")
	}
}

func TestReplayAppliesAllInOrder(t *testing.T) {
	s, err := Generate(stats.NewRNG(5), defaultConfig(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	err = ReplayTimed(s.Events, func(ev Event) error {
		got = append(got, ev)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s.Events) {
		t.Fatalf("applied %d of %d events", len(got), len(s.Events))
	}
}

func TestReplayStopsOnError(t *testing.T) {
	s, _ := Generate(stats.NewRNG(6), defaultConfig(t, 50))
	count := 0
	err := ReplayTimed(s.Events, func(Event) error {
		count++
		if count == 10 {
			return fmt.Errorf("stop here")
		}
		return nil
	}, nil)
	if err == nil || count != 10 {
		t.Fatalf("err=%v count=%d, want error at event 10", err, count)
	}
}

func TestReplayTimedIntervalAccounting(t *testing.T) {
	events := []Event{
		{Time: 1.0, Kind: OpAdd, Entry: "a"},
		{Time: 2.5, Kind: OpAdd, Entry: "b"},
		{Time: 2.5, Kind: OpDelete, Entry: "a"}, // simultaneous: zero-width interval skipped
		{Time: 4.0, Kind: OpDelete, Entry: "b"},
	}
	var intervals [][2]float64
	applied := 0
	err := ReplayTimed(events, func(Event) error {
		applied++
		return nil
	}, func(from, to float64) error {
		intervals = append(intervals, [2]float64{from, to})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 4 {
		t.Fatalf("applied %d, want 4", applied)
	}
	want := [][2]float64{{0, 1}, {1, 2.5}, {2.5, 4}}
	if len(intervals) != len(want) {
		t.Fatalf("intervals %v, want %v", intervals, want)
	}
	total := 0.0
	for i, iv := range intervals {
		if iv != want[i] {
			t.Fatalf("interval %d = %v, want %v", i, iv, want[i])
		}
		total += iv[1] - iv[0]
	}
	if math.Abs(total-4.0) > 1e-12 {
		t.Fatalf("total observed time %v, want 4", total)
	}
}

func TestReplayTimedNilObserver(t *testing.T) {
	events := []Event{{Time: 1, Kind: OpAdd, Entry: "a"}}
	if err := ReplayTimed(events, func(Event) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpDelete.String() != "delete" {
		t.Fatal("kind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := func() Stream {
		s, err := Generate(stats.NewRNG(123), defaultConfig(t, 200))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := gen(), gen()
	if len(a.Events) != len(b.Events) {
		t.Fatal("lengths differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
}
