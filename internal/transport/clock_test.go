package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilClockIsTheWallClock(t *testing.T) {
	var clock *Clock
	before := time.Now()
	if err := clock.Sleep(context.Background(), 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := clock.Now().Sub(before); elapsed < 2*time.Millisecond {
		t.Fatalf("wall Sleep returned after %v, want >= 2ms", elapsed)
	}
	ctx, cancel := clock.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := clock.Sleep(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wall Sleep past a deadline: %v, want DeadlineExceeded", err)
	}
}

// A virtual Sleep returns at once with the clock moved by exactly d; a
// virtual deadline ends the Sleep that passes it, at the deadline, and
// reports context.DeadlineExceeded like a wall-clock one.
func TestVirtualClockSleepAndDeadline(t *testing.T) {
	clock := NewClock()
	start := clock.Now()
	if err := clock.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(start); got != time.Hour {
		t.Fatalf("after Sleep(1h) the clock moved %v", got)
	}

	late, cancelLate := clock.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancelLate()
	ctx, cancel := clock.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start = clock.Now()
	if err := clock.Sleep(ctx, time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sleep past the deadline: %v, want DeadlineExceeded", err)
	}
	if got := clock.Now().Sub(start); got != 10*time.Millisecond {
		t.Fatalf("Sleep stopped after %v, want at the 10ms deadline", got)
	}
	if ctx.Err() != context.DeadlineExceeded || late.Err() != nil {
		t.Fatalf("ctx.Err() = %v, later deadline's = %v; want DeadlineExceeded, nil", ctx.Err(), late.Err())
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("a virtual deadline leaked into Deadline, which real I/O reads")
	}

	// A deadline cancelled before it passes reports Canceled, not
	// DeadlineExceeded, even once the clock passes it; so does the
	// deadline of a cancelled parent. A nested deadline keeps the
	// earlier one.
	cancelLate()
	if err := clock.Sleep(late, time.Second); err != context.Canceled || late.Err() != context.Canceled {
		t.Fatalf("Sleep = %v, cancelled deadline's Err = %v; want Canceled twice", err, late.Err())
	}
	outer, cancelOuter := clock.WithTimeout(context.Background(), time.Millisecond)
	defer cancelOuter()
	nested, cancelNested := clock.WithTimeout(outer, time.Hour)
	defer cancelNested()
	start = clock.Now()
	if err := clock.Sleep(nested, time.Second); err != context.DeadlineExceeded || clock.Now().Sub(start) != time.Millisecond {
		t.Fatalf("nested Sleep = %v after %v, want DeadlineExceeded at the outer 1ms", err, clock.Now().Sub(start))
	}
	parent, stop := context.WithCancel(context.Background())
	child, cancelChild := clock.WithTimeout(parent, time.Second)
	defer cancelChild()
	stop()
	if err := child.Err(); err != context.Canceled {
		t.Fatalf("child of a cancelled parent: %v, want Canceled", err)
	}
}

// Concurrent sleepers share one clock: it ends exactly as far forward
// as their sleeps add up to, and no reader sees it run backwards.
func TestVirtualClockConcurrentSleepers(t *testing.T) {
	clock := NewClock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := clock.Now()
			for i := 0; i < 100; i++ {
				_ = clock.Sleep(context.Background(), time.Microsecond)
				if now := clock.Now(); now.Before(last) {
					t.Errorf("clock ran backwards: %v after %v", now, last)
				} else {
					last = now
				}
			}
		}()
	}
	wg.Wait()
	if got := clock.Now().Sub(time.Unix(0, 0)); got != 400*time.Microsecond {
		t.Fatalf("clock at %v after 400 sleeps of 1us", got)
	}
}
