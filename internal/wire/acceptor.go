package wire

import (
	"net"
	"sync"
	"sync/atomic"
)

// Acceptor is the accept loop both serve-tier servers (the shard and
// the router) run: it hands every accepted connection to the server's
// handler on a goroutine of its own, keeps the live set so Close can cut
// every connection, and counts them for the servers' connection gauges.
type Acceptor struct {
	handle func(*Conn)
	closed atomic.Bool
	done   chan struct{}
	live   atomic.Int64
	wg     sync.WaitGroup

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
}

// NewAcceptor builds an acceptor that serves each connection with
// handle; the connection is closed once handle returns.
func NewAcceptor(handle func(*Conn)) *Acceptor {
	return &Acceptor{handle: handle, done: make(chan struct{}), conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (a *Acceptor) Serve(ln net.Listener) error {
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	if a.closed.Load() { // Close raced ahead of us
		ln.Close()
		return net.ErrClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if a.closed.Load() {
				return net.ErrClosed
			}
			return err
		}
		a.mu.Lock()
		a.conns[nc] = struct{}{}
		a.mu.Unlock()
		a.live.Add(1)
		a.Go(func() {
			defer func() {
				a.mu.Lock()
				delete(a.conns, nc)
				a.mu.Unlock()
				a.live.Add(-1)
				nc.Close()
			}()
			a.handle(NewConn(nc))
		})
	}
}

// Go runs fn on a goroutine that Close waits for; fn must return once
// Done is closed.
func (a *Acceptor) Go(fn func()) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		fn()
	}()
}

// Done is closed when Close begins.
func (a *Acceptor) Done() <-chan struct{} { return a.done }

// Closed reports whether Close has begun: a handler's read error after
// that is the shutdown, not a fault worth logging.
func (a *Acceptor) Closed() bool { return a.closed.Load() }

// Connections returns the number of live connections.
func (a *Acceptor) Connections() int64 { return a.live.Load() }

// Close closes Done, stops accepting, closes every live connection and
// waits for every handler and Go function to return. Only the first
// call acts; later calls return nil.
func (a *Acceptor) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(a.done)
	var err error
	a.mu.Lock()
	if a.ln != nil {
		err = a.ln.Close()
	}
	for nc := range a.conns {
		nc.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return err
}
