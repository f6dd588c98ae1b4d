// Package cliutil holds flag-parsing helpers shared by the plsd,
// plsctl and plsproxy command-line tools.
package cliutil

import (
	"fmt"
	"strings"

	"repro/internal/wire"
)

// ParseScheme converts a CLI scheme name and parameters into a
// validated strategy configuration. Accepted names: full, fixed,
// randomserver, round, hash, multiprobe, partition.
func ParseScheme(name string, x, y int, seed uint64) (wire.Config, error) {
	var cfg wire.Config
	switch strings.ToLower(name) {
	case "full", "fullreplication":
		cfg = wire.Config{Scheme: wire.FullReplication}
	case "fixed":
		cfg = wire.Config{Scheme: wire.Fixed, X: x}
	case "randomserver", "rs":
		cfg = wire.Config{Scheme: wire.RandomServer, X: x}
	case "round", "roundrobin":
		cfg = wire.Config{Scheme: wire.RoundRobin, Y: y}
	case "hash":
		cfg = wire.Config{Scheme: wire.Hash, Y: y, Seed: seed}
	case "partition", "keypartition":
		cfg = wire.Config{Scheme: wire.KeyPartition}
	case "multiprobe", "mp":
		cfg = wire.Config{Scheme: wire.MultiProbe, Y: y, Seed: seed}
	default:
		return cfg, fmt.Errorf("cliutil: unknown scheme %q (want full, fixed, randomserver, round, hash, multiprobe, or partition)", name)
	}
	// n is unknown at flag-parse time; validate the scheme-local
	// constraints only (n-dependent checks re-run at place time).
	if err := cfg.Validate(0); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// ParseServerList splits a comma-separated address list, trimming
// whitespace and rejecting empty items.
func ParseServerList(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("cliutil: empty address in server list %q", s)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty server list")
	}
	return out, nil
}
