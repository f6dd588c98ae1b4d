package wire

import (
	"strings"
	"testing"
)

func TestSchemeString(t *testing.T) {
	tests := []struct {
		s    Scheme
		want string
	}{
		{FullReplication, "FullReplication"},
		{Fixed, "Fixed-x"},
		{RandomServer, "RandomServer-x"},
		{RoundRobin, "Round-y"},
		{Hash, "Hash-y"},
		{Scheme(0), "Scheme(0)"},
		{Scheme(99), "Scheme(99)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("Scheme(%d).String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

func TestSchemeValid(t *testing.T) {
	for s := FullReplication; s <= MultiProbe; s++ {
		if !s.Valid() {
			t.Errorf("scheme %v invalid", s)
		}
	}
	if Scheme(0).Valid() || Scheme(8).Valid() {
		t.Error("out-of-range scheme reported valid")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		n       int
		wantErr string
	}{
		{"full replication", Config{Scheme: FullReplication}, 10, ""},
		{"fixed ok", Config{Scheme: Fixed, X: 5}, 10, ""},
		{"fixed zero x", Config{Scheme: Fixed}, 10, "requires x > 0"},
		{"random server negative x", Config{Scheme: RandomServer, X: -1}, 10, "requires x > 0"},
		{"round ok", Config{Scheme: RoundRobin, Y: 3}, 10, ""},
		{"round zero y", Config{Scheme: RoundRobin}, 10, "requires y > 0"},
		{"round y exceeds n", Config{Scheme: RoundRobin, Y: 11}, 10, "requires y <= n"},
		{"round y equals n", Config{Scheme: RoundRobin, Y: 10}, 10, ""},
		{"hash ok", Config{Scheme: Hash, Y: 2}, 10, ""},
		{"hash zero y", Config{Scheme: Hash}, 10, "requires y > 0"},
		{"hash y may exceed n", Config{Scheme: Hash, Y: 20}, 10, ""},
		{"unset scheme", Config{}, 10, "invalid scheme"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(tc.n)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestConfigString(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Config{Scheme: FullReplication}, "FullReplication"},
		{Config{Scheme: Fixed, X: 20}, "Fixed-20"},
		{Config{Scheme: RandomServer, X: 20}, "RandomServer-20"},
		{Config{Scheme: RoundRobin, Y: 2}, "Round-2"},
		{Config{Scheme: Hash, Y: 2}, "Hash-2"},
	}
	for _, tc := range tests {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("Config.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestConfigParam(t *testing.T) {
	tests := []struct {
		cfg  Config
		want int
	}{
		{Config{Scheme: FullReplication}, 0},
		{Config{Scheme: Fixed, X: 20}, 20},
		{Config{Scheme: RandomServer, X: 7}, 7},
		{Config{Scheme: RoundRobin, Y: 2}, 2},
		{Config{Scheme: Hash, Y: 3}, 3},
	}
	for _, tc := range tests {
		if got := tc.cfg.Param(); got != tc.want {
			t.Errorf("%v.Param() = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestMessageKinds(t *testing.T) {
	msgs := []Message{
		Place{}, Add{}, Delete{}, Lookup{}, StoreBatch{}, StoreOne{},
		RemoveOne{}, RoundRemove{}, Migrate{}, Dump{}, Ping{}, Ack{},
		LookupReply{}, MigrateReply{}, DumpReply{},
		PlaceBatch{}, AddBatch{}, LookupBatch{}, BatchAck{}, LookupBatchReply{}, StoreBatches{},
	}
	seen := make(map[Kind]bool)
	for _, m := range msgs {
		k := m.Kind()
		if k == 0 {
			t.Errorf("%T has zero kind", m)
		}
		if seen[k] {
			t.Errorf("%T reuses kind %d", m, k)
		}
		seen[k] = true
	}
}
