package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestPeerCountersRecordEveryAttempt: with -peer-retries 3 a call to a
// peer nobody listens on is three attempts, and peer.calls, peer.errors
// and the selector's scoreboard each see three — one per attempt, as
// TransportMetrics.Calls documents — not one for the call that wrapped
// them.
func TestPeerCountersRecordEveryAttempt(t *testing.T) {
	reg := telemetry.NewRegistry()
	caller, client, sel := newPeerCaller(reg, freeAddrs(t, 1), 0, peerOptions{
		timeout: 200 * time.Millisecond,
		retries: 3,
	})
	defer client.Close()

	if _, err := caller.Call(context.Background(), 0, wire.Ping{}); !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("Call to a refused address = %v, want ErrServerDown", err)
	}
	per := reg.Snapshot().PerServer
	for _, name := range []string{"peer.calls", "peer.errors", "peer.dial_errors"} {
		if got := per[name][0]; got != 3 {
			t.Errorf("%s = %d, want 3 (one per attempt)", name, got)
		}
	}
	if got := sel.Health()[0].ConsecFails; got != 3 {
		t.Errorf("selector saw %d consecutive failures, want 3", got)
	}
}

// TestSelectorHealthGaugesFollowMembership: the selector.* health
// vectors take their length from the selector at each snapshot, so a
// joiner shows once membership resizes the selector.
func TestSelectorHealthGaugesFollowMembership(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, client, sel := newPeerCaller(reg, []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 0, peerOptions{
		timeout: 200 * time.Millisecond,
	})
	defer client.Close()

	sel.Resize(4)
	per := reg.Snapshot().PerServer
	for _, name := range []string{"selector.consec_failures", "selector.open", "selector.ewma_ns"} {
		if got := len(per[name]); got != 4 {
			t.Errorf("%s has %d values after Resize(4), want 4", name, got)
		}
	}
}
