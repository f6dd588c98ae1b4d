// Lookup resilience policy: a per-lookup deadline, plus the retries and
// hedging of transport.Retry applied below the strategy drivers, so the
// per-scheme probe orders (and their failover iteration) are untouched:
// a probe that exhausts its retries surfaces as a down server and the
// driver resumes with the next server in its probe order.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// ErrPartialResult is matched (via errors.Is) by the typed *PartialError
// that PartialLookup returns when the target answer size cannot be met
// before the lookup deadline. The accompanying Result still carries
// every entry gathered so far — graceful degradation, not data loss.
var ErrPartialResult = errors.New("core: partial result")

// PartialError reports a lookup cut short by its deadline (or by
// cancellation) before reaching the target answer size.
type PartialError struct {
	Key   string
	Got   int   // entries retrieved before the deadline
	Want  int   // the lookup's target answer size t
	Cause error // the context error (or transport error) that ended the lookup
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("core: partial result for %q: %d of %d entries before deadline: %v",
		e.Key, e.Got, e.Want, e.Cause)
}

func (e *PartialError) Is(target error) bool { return target == ErrPartialResult }

func (e *PartialError) Unwrap() error { return e.Cause }

// LookupPolicy configures the resilience of the client lookup path.
// The zero value preserves the original behavior: no deadline, one
// attempt per probe, no hedging.
type LookupPolicy struct {
	// Timeout bounds one PartialLookup end to end (all probes, retries,
	// and backoff included). Zero means no deadline beyond the caller's
	// context.
	Timeout time.Duration
	// Retry sets each probe's attempts against its server, the backoff
	// between them, and hedging; see transport.Retry.
	Retry transport.RetryPolicy
}
