package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// refProbe measures how fast this machine is right now at the kind of
// work the system under test does most: small messages over loopback
// TCP between goroutines. It shares no code with the repository's
// layers (package net only), so a change to them cannot move it.
//
// The sandbox's speed at syscall- and memory-heavy work drifts by 20 %
// over minutes and by up to 4x over tenths of a second, while an
// in-cache ALU loop stays within 5 %; the timed end-to-end metrics are
// therefore scaled to a reference machine on which this probe completes
// refNominal round-trips per second (see README "Reference speed").
type refProbe struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

const (
	refNominal    = 100000.0 // round-trips/s of the reference machine
	refConns      = 4
	refRoundTrips = 400 // per connection per burst
	refMsgBytes   = 64
)

func newRefProbe() (*refProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refProbe{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				defer c.Close()
				buf := make([]byte, refMsgBytes)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < refConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// burst runs refRoundTrips echo round-trips on each connection at once
// and returns the machine's speed as a factor of the reference
// machine's: above 1 is faster.
func (r *refProbe) burst() (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(r.conns))
	start := time.Now()
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			buf := make([]byte, refMsgBytes)
			for n := 0; n < refRoundTrips; n++ {
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	took := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return float64(refRoundTrips*len(r.conns)) / took / refNominal, nil
}

// speed is the median of n bursts.
func (r *refProbe) speed(n int) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		var err error
		if xs[i], err = r.burst(); err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// close stops the echo server and waits for its goroutines.
func (r *refProbe) close() {
	r.ln.Close()
	for _, c := range r.conns {
		c.Close()
	}
	r.wg.Wait()
}
