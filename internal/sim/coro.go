//go:build go1.23

package sim

import "iter"

// newCoro wraps body as a runtime coroutine and returns its resume
// function. The first resume starts body; each later one returns from the
// park call body is suspended in. resume returns once body parks or
// returns. Switching between the caller and the coroutine is a direct
// runtime hand-over, with no channel and no trip through the scheduler.
// The iter.Pull signatures are kept as they are: wrapping them in
// plain func() closures costs ~15% per switch.
func newCoro(body func(park func(struct{}) bool)) (resume func() (struct{}, bool)) {
	resume, _ = iter.Pull(iter.Seq[struct{}](body))
	return resume
}
