// Package workerpanic carries a panic out of a worker goroutine to the
// goroutine that waits for the work, so a server fails one request
// instead of crashing: a panic in a goroutine of its own ends the process
// whatever the goroutine that started it recovers.
package workerpanic

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Error is a panic recovered from a worker goroutine: the work it was
// part of stops and fails with this error (or, in a worker pool that
// reports no error, panics again with it on the caller's goroutine).
type Error struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Prefix begins every Error message. hotspotd answers a worker panic with
// status 500 and Prefix followed by the panic value, so a client can tell
// a panic, which the same request hits again on any server, from a
// transient failure.
const Prefix = "worker panic: "

// Error reports the panic value followed by the worker's stack. The error,
// or the panic raised again with it, is where the stack of the failing
// code gets printed: the worker goroutine that ran it is gone.
func (e *Error) Error() string {
	if len(e.Stack) == 0 {
		return Prefix + fmt.Sprint(e.Value)
	}
	return fmt.Sprintf("%s%v\n\n%s", Prefix, e.Value, e.Stack)
}

// Recovered wraps a value returned by recover, called in the deferred
// function of the panicking goroutine, with that goroutine's stack. An
// *Error raised again from a nested pool is returned as it is, keeping
// the original stack.
func Recovered(v any) *Error {
	if p, ok := v.(*Error); ok {
		return p
	}
	return &Error{Value: v, Stack: debug.Stack()}
}

// Group runs functions on goroutines of their own and waits for them.
// Wait panics on the caller's goroutine with the *Error of the first
// function that panicked. The zero Group is ready to use.
type Group struct {
	wg    sync.WaitGroup
	first atomic.Pointer[Error]
}

// Go runs f on a new goroutine, recovering a panic into the group.
func (g *Group) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				g.first.CompareAndSwap(nil, Recovered(v))
			}
		}()
		f()
	}()
}

// Panicked reports whether a function of the group has panicked, so the
// others can stop taking work.
func (g *Group) Panicked() bool { return g.first.Load() != nil }

// Wait waits for every function, then raises the first panic again.
func (g *Group) Wait() {
	g.wg.Wait()
	if p := g.first.Load(); p != nil {
		panic(p)
	}
}
