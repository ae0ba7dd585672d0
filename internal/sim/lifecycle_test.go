package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runLeakChecked builds a scenario on a fresh engine, runs it, and fails
// the test if any goroutine outlives Run. Every proc is a coroutine backed
// by a goroutine, so a proc that shutdown failed to resume to completion
// shows up here as a leak.
func runLeakChecked(t *testing.T, cpus int, build func(e *Engine)) (*Engine, error) {
	t.Helper()
	base := runtime.NumGoroutine()
	e := NewEngine(cpus)
	build(e)
	err := e.Run()
	// A finished coroutine's goroutine exits as it hands control back, but
	// give the runtime a moment before calling a surplus a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, %d before", n, base)
	}
	for _, p := range e.procs {
		if !p.Finished() {
			t.Errorf("proc %q not finished after Run", p.Name())
		}
	}
	return e, err
}

func TestLifecycleCompletionWithLiveDaemons(t *testing.T) {
	var c Cond
	e, err := runLeakChecked(t, 2, func(e *Engine) {
		e.Spawn("ticker", true, func(v *Env) {
			for {
				v.Sleep(Millisecond)
			}
		})
		e.Spawn("waiter", true, func(v *Env) { v.Wait(&c) })
		e.Spawn("work", false, func(v *Env) { v.Charge(5 * Millisecond) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("ended at %v, want 5ms", e.Now())
	}
}

func TestLifecycleDeadlock(t *testing.T) {
	var c Cond
	_, err := runLeakChecked(t, 1, func(e *Engine) {
		e.Spawn("stuck-a", false, func(v *Env) { v.Wait(&c) })
		e.Spawn("stuck-b", false, func(v *Env) {
			v.Sleep(Millisecond)
			v.Wait(&c)
		})
		e.Spawn("daemon", true, func(v *Env) { v.Wait(&c) })
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a deadlock error", err)
	}
}

type lifecycleError struct{ code int }

func (e *lifecycleError) Error() string { return "lifecycle error" }

func TestLifecyclePanicKillsSiblings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value any
	}{
		{"string", "boom"},
		{"typed-error", &lifecycleError{code: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runLeakChecked(t, 2, func(e *Engine) {
				e.Spawn("sleeper", false, func(v *Env) { v.Sleep(Second) })
				e.Spawn("daemon", true, func(v *Env) {
					for {
						v.Charge(Millisecond)
					}
				})
				e.Spawn("bad", false, func(v *Env) {
					v.Charge(2 * Millisecond)
					panic(tc.value)
				})
			})
			if err == nil || !strings.Contains(err.Error(), `proc "bad" panicked`) {
				t.Fatalf("err = %v, want the bad proc's panic", err)
			}
			if want, ok := tc.value.(*lifecycleError); ok {
				var got *lifecycleError
				if !errors.As(err, &got) || got != want {
					t.Fatalf("errors.As(%v) = %v, want the panicked *lifecycleError", err, got)
				}
			}
		})
	}
}

func TestLifecycleStopFromCallback(t *testing.T) {
	var c Cond
	e, err := runLeakChecked(t, 1, func(e *Engine) {
		e.Spawn("charger", false, func(v *Env) {
			for {
				v.Charge(Millisecond)
			}
		})
		e.Spawn("sleeper", false, func(v *Env) { v.Sleep(Second) })
		e.Spawn("waiter", false, func(v *Env) { v.Wait(&c) })
		e.After(3*Millisecond, e.Stop)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(3*Millisecond) {
		t.Fatalf("stopped at %v, want 3ms", e.Now())
	}
}

func TestLifecycleNeverScheduledProc(t *testing.T) {
	ran := false
	var late *Proc
	_, err := runLeakChecked(t, 1, func(e *Engine) {
		e.Spawn("first", false, func(v *Env) {
			late = v.Engine().Spawn("late", false, func(*Env) { ran = true })
			v.Engine().Stop()
			v.Yield()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("proc spawned after Stop ran its body")
	}
	if !late.Finished() {
		t.Fatal("never-scheduled proc not finished")
	}
}

// TestLifecycleOwnRecoverRepanicsKill covers the pattern daemons use to
// turn their panics into classified errors: a deferred recover that must
// hand the engine's kill signal back untouched.
func TestLifecycleOwnRecoverRepanicsKill(t *testing.T) {
	sawKill := false
	_, err := runLeakChecked(t, 1, func(e *Engine) {
		e.Spawn("flusher", true, func(v *Env) {
			defer func() {
				r := recover()
				if IsKillSignal(r) {
					sawKill = true
					panic(r)
				}
				if r != nil {
					panic(r)
				}
			}()
			for {
				v.Sleep(Millisecond)
			}
		})
		e.Spawn("work", false, func(v *Env) { v.Charge(3 * Millisecond) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawKill {
		t.Fatal("daemon's recover never saw the kill signal")
	}
}

// TestLifecycleSwallowedKillUnwindsAgain checks that a proc which
// swallows the kill signal and then parks again is unwound again instead
// of being left suspended.
func TestLifecycleSwallowedKillUnwindsAgain(t *testing.T) {
	kills := 0
	var c Cond
	_, err := runLeakChecked(t, 1, func(e *Engine) {
		e.Spawn("stubborn", true, func(v *Env) {
			defer func() {
				if IsKillSignal(recover()) {
					kills++
				}
			}()
			func() {
				defer func() {
					if IsKillSignal(recover()) {
						kills++
					}
				}()
				v.Wait(&c)
			}()
			v.Wait(&c)
		})
		e.Spawn("work", false, func(v *Env) { v.Charge(Millisecond) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if kills != 2 {
		t.Fatalf("kill signal seen %d times, want 2", kills)
	}
}

// TestEngineStatsPinned pins the scheduling counters of a small scenario
// whose trace can be followed by hand on one CPU:
//
//	a@0 (switch) charges a quantum; b@0 (switch) sleeps to 500us; the
//	200us callback runs; a@250 (switch) charges; b@500 (switch) charges
//	100us dilated 2x; a@500 (switch) charges 500us dilated; b@700
//	(switch) finishes; a@1000 (switch) charges its last quantum to
//	1250us; the 1100us callback runs and a@1250 is a self-wake; a's
//	1ms sleep advances in place (lookahead) to 2250us.
func TestEngineStatsPinned(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", false, func(v *Env) {
		v.Charge(Millisecond)
		v.Sleep(Millisecond)
	})
	e.Spawn("b", false, func(v *Env) {
		v.Sleep(500 * Microsecond)
		v.Charge(100 * Microsecond)
	})
	e.After(200*Microsecond, func() {})
	e.After(1100*Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(2250*Microsecond) {
		t.Fatalf("ended at %v, want 2.25ms", e.Now())
	}
	want := Stats{Events: 10, Switches: 7, SelfWakes: 1, Lookaheads: 1}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}
