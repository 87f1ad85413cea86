package workerpanic

import (
	"strings"
	"sync/atomic"
	"testing"
)

// Wait raises the first panic of the group again on the caller, as an
// *Error carrying the worker's value and stack, after every function has
// returned.
func TestGroupRaisesFirstPanic(t *testing.T) {
	var g Group
	var finished atomic.Int32
	release, panicking := make(chan struct{}), make(chan struct{})
	for i := 0; i < 3; i++ {
		g.Go(func() {
			<-release
			finished.Add(1)
		})
	}
	g.Go(func() {
		defer close(panicking)
		panic("group boom")
	})
	<-panicking // the others are still blocked on release
	close(release)
	got := func() (v any) {
		defer func() { v = recover() }()
		g.Wait()
		return nil
	}()
	p, ok := got.(*Error)
	if !ok || p.Value != "group boom" || !strings.Contains(string(p.Stack), "TestGroupRaisesFirstPanic") {
		t.Fatalf("Wait raised %#v, want an *Error of \"group boom\" with the worker's stack", got)
	}
	if n := finished.Load(); n != 3 {
		t.Fatalf("Wait returned with %d of 3 other functions finished", n)
	}
	if msg := p.Error(); !strings.HasPrefix(msg, Prefix+"group boom\n") {
		t.Fatalf("Error() = %q, want the value then the stack", msg)
	}
}

// A group whose functions return normally waits without panicking, and
// Recovered keeps an *Error raised again from a nested group as it is.
func TestGroupNoPanicAndNesting(t *testing.T) {
	var g Group
	var sum atomic.Int32
	for i := 1; i <= 4; i++ {
		g.Go(func() { sum.Add(int32(i)) })
	}
	g.Wait()
	if sum.Load() != 10 || g.Panicked() {
		t.Fatalf("sum %d, panicked %v; want 10, false", sum.Load(), g.Panicked())
	}

	inner := &Error{Value: "inner", Stack: []byte("inner stack")}
	if got := Recovered(inner); got != inner {
		t.Fatalf("Recovered re-wrapped an *Error: %#v", got)
	}
	if got := Recovered("plain"); got.Value != "plain" || len(got.Stack) == 0 {
		t.Fatalf("Recovered(plain) = %#v, want the value with a stack", got)
	}
}
