package node

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Batch envelopes amortize one round trip (and one transport dispatch)
// across many keys. Each item executes exactly as its standalone
// message would — same executors, same RNG draws — so a batched client
// observes byte-identical placement to a sequential one.

// batchAck runs handle on each item of an envelope, in order, and
// reports per-item outcomes.
func batchAck[T any](items []T, handle func(T) wire.Message) wire.Message {
	errs := make([]string, len(items))
	for i, item := range items {
		if ack, ok := handle(item).(wire.Ack); ok {
			errs[i] = ack.Err
		}
	}
	return wire.BatchAck{Errs: errs}
}

func (r req) handlePlaceBatch(ctx context.Context, m wire.PlaceBatch) wire.Message {
	return wire.BatchAck{Errs: r.place(ctx, m.Items)}
}

func (r req) handleAddBatch(ctx context.Context, m wire.AddBatch) wire.Message {
	return batchAck(m.Items, func(item wire.Add) wire.Message { return r.handleAdd(ctx, item) })
}

func (r req) handleStoreBatches(m wire.StoreBatches) wire.Message {
	return batchAck(m.Items, r.handleStoreBatch)
}

// place runs the initial server S's role in place(v1..vh) for each
// item and returns per-item outcomes, "" on success. Every scheme
// places with StoreBatch alone: its executor names the message and
// where it goes, and the receivers select. A server is sent everything
// the items have for it at once, so a place costs one processed message
// per server and a batch of places costs no more; what follows a key's
// shares (Round-y's counters) runs per item once they are acked.
func (r req) place(ctx context.Context, items []wire.Place) []string {
	errs := make([]string, len(items))
	plans := make([]placePlan, len(items))
	for i, m := range items {
		var err error
		if plans[i], err = r.planPlace(m); err != nil {
			errs[i] = err.Error()
		}
	}
	for server := range r.v.Addrs {
		r.sendShares(ctx, server, plans, errs)
	}
	for i, p := range plans {
		if errs[i] == "" && p.after != nil {
			p.after()
		}
	}
	return errs
}

// planPlace validates one place and asks its scheme how it reaches the
// cluster.
func (r req) planPlace(m wire.Place) (placePlan, error) {
	if r.v.peers == nil {
		return placePlan{}, errors.New("node: no peer caller attached")
	}
	if err := m.Config.Validate(len(r.v.Addrs)); err != nil {
		return placePlan{}, err
	}
	if !allValid(m.Entries) {
		return placePlan{}, errors.New(errEmptyPlaceEntry)
	}
	return execFor(m.Config.Scheme).place(r, m)
}

// sendShares delivers to one server the shares the plans still standing
// have for it — several as one StoreBatches, a single one as the bare
// StoreBatch — and files each item's outcome in errs. A down server
// loses its share of a broadcast, per the paper's fault model (see
// callBestEffort); a share addressed to that server alone fails.
func (r req) sendShares(ctx context.Context, server int, plans []placePlan, errs []string) {
	var (
		items  []int
		shares []wire.StoreBatch
	)
	for i, p := range plans {
		if errs[i] == "" && (p.target == everyServer || p.target == server) {
			items, shares = append(items, i), append(shares, p.share)
		}
	}
	if len(items) == 0 {
		return
	}
	var msg wire.Message = wire.StoreBatches{Items: shares}
	if len(shares) == 1 {
		msg = shares[0]
	}
	reply, err := r.callReply(ctx, server, msg)
	var acks []string
	if err == nil {
		switch r := reply.(type) {
		case wire.Ack:
			acks = []string{r.Err}
		case wire.BatchAck:
			acks = r.Errs
			if r.Err != "" {
				err = fmt.Errorf("node: server %d: %s", server, r.Err)
			}
		}
		if err == nil && len(acks) != len(items) {
			err = fmt.Errorf("node: server %d: reply %T does not answer %d place shares", server, reply, len(items))
		}
	}
	for j, i := range items {
		switch {
		case err == nil:
			if acks[j] != "" {
				errs[i] = fmt.Sprintf("node: server %d: %s", server, acks[j])
			}
		case plans[i].target == everyServer && errors.Is(err, transport.ErrServerDown):
			// the down server's share of a broadcast is lost
		default:
			errs[i] = err.Error()
		}
	}
}

// handleLookupBatch answers each probe from the local sets, one
// LookupReply per item in order. Unknown keys yield empty replies, as a
// standalone Lookup would.
func (n *Node) handleLookupBatch(m wire.LookupBatch) wire.Message {
	replies := make([]wire.LookupReply, len(m.Items))
	for i, item := range m.Items {
		if lr, ok := n.handleLookup(item).(wire.LookupReply); ok {
			replies[i] = lr
		}
	}
	return wire.LookupBatchReply{Replies: replies}
}
