package transport

import (
	"context"
	"sync/atomic"
	"time"
)

// Clock is the time a world runs on: nil is the wall clock (daemons,
// bench/, real I/O). A virtual clock (NewClock) moves only in Sleep, by
// which Chaos injects latency, so a serial call's latency is the sum
// along its path. Concurrent callers share it: monotonic, not exact.
type Clock struct{ now atomic.Int64 } // nanoseconds since the Unix epoch

// NewClock returns a virtual clock standing at the Unix epoch.
func NewClock() *Clock { return &Clock{} }

// ClockOf returns c's clock, passed up by middleware from a Chaos, or nil.
func ClockOf(c Caller) *Clock {
	if cc, ok := c.(interface{ Clock() *Clock }); ok {
		return cc.Clock()
	}
	return nil
}

// Now returns the current time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	return time.Unix(0, c.now.Load())
}

// Sleep waits d or until ctx is done and returns ctx's error; a virtual
// clock moves d forward instead, or to ctx's deadline, which it expires.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) error {
	if c == nil {
		wait, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		<-wait.Done()
		return ctx.Err()
	}
	if dl, _ := ctx.Value(c).(*deadline); dl != nil && dl.at <= c.now.Load()+int64(d) {
		c.now.Add(max(0, dl.at-c.now.Load()))
		dl.expire(context.DeadlineExceeded)
	} else {
		c.now.Add(int64(max(d, 0)))
	}
	return ctx.Err()
}

// WithTimeout is context.WithTimeout on this clock. A virtual deadline
// is not the context's Deadline, so real I/O never reads virtual time.
func (c *Clock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if c == nil {
		return context.WithTimeout(ctx, d)
	}
	inner, cancel := context.WithCancelCause(ctx)
	dl := &deadline{at: c.now.Load() + int64(d), expire: cancel}
	if outer, ok := ctx.Value(c).(*deadline); ok {
		dl.at = min(dl.at, outer.at)
	}
	dl.Context = context.WithValue(inner, c, dl)
	return dl, func() { cancel(context.Canceled) }
}

// deadline is a virtual WithTimeout's context, its clock's value. Its Err
// reports expiry as context.DeadlineExceeded, as context.WithTimeout's.
type deadline struct {
	context.Context
	at     int64
	expire context.CancelCauseFunc
}

func (d *deadline) Err() error {
	if context.Cause(d.Context) == context.DeadlineExceeded {
		return context.DeadlineExceeded
	}
	return d.Context.Err()
}
