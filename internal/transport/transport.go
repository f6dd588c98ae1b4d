// Package transport connects clients and lookup servers.
//
// Two networks carry the same wire messages:
//
//   - Chaos, in chaos.go, is the in-process network: it dispatches
//     messages by direct function call to the handler bound in each
//     slot, and injects the faults the experiments script — down
//     servers, latency, drops, slow starts, pairwise and zone
//     partitions — deterministically from one seeded RNG.
//
//   - Client/Server in tcp.go carry the messages over real sockets,
//     proving the protocols run on a network, not only in a simulator.
//
// Neither meters the paper's cost model (Sec. 6.4): each server counts
// the messages it handles (see node.Node.Handled).
package transport

import (
	"context"
	"errors"

	"repro/internal/wire"
)

// ErrServerDown is returned by Call when the target server has failed.
// Client strategy drivers react by probing a different server, as the
// paper specifies ("keep on selecting another random server until an
// operational server is found").
var ErrServerDown = errors.New("transport: server down")

// Caller sends a request message to one server and returns its reply.
// It is implemented by *Chaos and *Client and consumed by the strategy
// drivers and server nodes (for peer traffic).
type Caller interface {
	// Call delivers msg to the given server and returns the reply.
	Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error)
	// NumServers returns the cluster size n.
	NumServers() int
}

// Handler processes one message at a server and produces a reply.
// *node.Node and *proxy.Proxy implement it.
//
// Behind a Server, Handle runs on the goroutine that read the request,
// and nothing else on that connection is read or answered until it
// returns. The rule is the same for every kind: a handler stays on that
// goroutine for its own work — memory, its store, the group commit of
// its own log that a request's reply waits for, the one in flight it
// may wait out first included — and calls Detach(ctx) at the point
// where it is about to wait on another server or goroutine: a peer
// call, a lock held across peer calls, another request's progress.
// Detach writes the replies queued so far, hands the reading to another goroutine — one parked on the
// connection since it finished an earlier request, or else a new one —
// and the caller carries on as this request's own goroutine, its reply
// written when Handle returns. A request that never waits that way is
// answered in order with the ones around it, many per read and per
// write; the price is that a slow one of its own (the commit a durable
// request's reply waits for) holds the connection while it runs. At most
// maxInflightPerConn handlers per connection are detached at once;
// Detach blocks for a slot beyond that, and does nothing when repeated.
// The capability rides ctx, so it reaches a handler through wrappers
// and derived contexts; a ctx no Server issued (Chaos's, a test's)
// carries none, and Detach does nothing there.
type Handler interface {
	Handle(ctx context.Context, msg wire.Message) wire.Message
}
