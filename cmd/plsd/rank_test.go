package main

import (
	"strings"
	"testing"
)

// A daemon finds itself in -peers by its -listen address. Each way of
// not finding exactly one such entry is refused with a message naming
// the flag at fault; a one-entry -peers needs no -listen.
func TestRankFindsTheDaemonByItsListenAddress(t *testing.T) {
	three := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"}
	for _, c := range []struct {
		listen string
		peers  []string
		join   bool
		want   int
	}{
		{"127.0.0.1:7002", three, false, 1},
		{"127.0.0.1:7003", three, true, 2},
		{"", three[:1], false, 0},
		{"127.0.0.1:7001", three[:1], true, 0},
	} {
		if got, err := rank(c.listen, c.peers, c.join); err != nil || got != c.want {
			t.Errorf("rank(%q, %v, join=%v) = %d, %v; want %d", c.listen, c.peers, c.join, got, err, c.want)
		}
	}
	for _, c := range []struct {
		what, listen string
		peers        []string
		join         bool
		flag         string
	}{
		{"a -listen that is not a -peers entry", "127.0.0.1:7009", three, false, "-listen"},
		{"a -listen that spells its entry differently", "localhost:7001", three, false, "-listen"},
		{"no -listen among several entries", "", three, false, "-listen"},
		{"an address listed twice", "127.0.0.1:7001", append(three, three[0]), false, "-peers"},
		{"a -join from a daemon that is not the last entry", "127.0.0.1:7002", three, true, "-join"},
	} {
		_, err := rank(c.listen, c.peers, c.join)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: %v, want a refusal naming %s", c.what, err, c.flag)
		}
	}
}
