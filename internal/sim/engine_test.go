package sim

import (
	"testing"
	"testing/quick"
)

func TestSingleProcChargeAdvancesTime(t *testing.T) {
	e := NewEngine(4)
	var end Time
	e.Spawn("worker", false, func(v *Env) {
		v.Charge(3 * Millisecond)
		end = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(3*Millisecond) {
		t.Fatalf("end = %v, want 3ms", end)
	}
}

func TestSleepDoesNotConsumeCPU(t *testing.T) {
	e := NewEngine(1)
	var cpu Duration
	p := e.Spawn("sleeper", false, func(v *Env) {
		v.Sleep(10 * Millisecond)
		v.Charge(1 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cpu = p.CPUTime()
	if cpu != 1*Millisecond {
		t.Fatalf("cpu = %v, want 1ms", cpu)
	}
	if e.Now() != Time(11*Millisecond) {
		t.Fatalf("now = %v, want 11ms", e.Now())
	}
}

// Two CPU-bound procs on one CPU should each take twice as long.
func TestProcessorSharingDilation(t *testing.T) {
	e := NewEngine(1)
	var ends [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", false, func(v *Env) {
			v.Charge(10 * Millisecond)
			ends[i] = v.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Allow one quantum of slack: the first chunk of the first proc runs
	// before the second proc begins charging, so it is undilated.
	lo, hi := Time(20*Millisecond-DefaultQuantum), Time(20*Millisecond)
	for i, end := range ends {
		if end < lo || end > hi {
			t.Fatalf("proc %d ended at %v, want ~20ms", i, end)
		}
	}
}

// With as many CPUs as procs there is no dilation.
func TestNoDilationUnderCapacity(t *testing.T) {
	e := NewEngine(2)
	var ends [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", false, func(v *Env) {
			v.Charge(10 * Millisecond)
			ends[i] = v.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		if end != Time(10*Millisecond) {
			t.Fatalf("proc %d ended at %v, want 10ms", i, end)
		}
	}
}

// A proc that blocks on I/O stops contributing to contention.
func TestBlockedProcReleasesCPU(t *testing.T) {
	e := NewEngine(1)
	var end Time
	e.Spawn("io", false, func(v *Env) {
		v.Sleep(100 * Millisecond) // blocked, no CPU use
	})
	e.Spawn("cpu", false, func(v *Env) {
		v.Charge(10 * Millisecond)
		end = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(10*Millisecond) {
		t.Fatalf("cpu proc ended at %v, want 10ms (no contention from sleeper)", end)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine(4)
	var c Cond
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", false, func(v *Env) {
			v.Wait(&c)
			order = append(order, i)
		})
	}
	e.Spawn("signaller", false, func(v *Env) {
		v.Sleep(1 * Millisecond)
		c.Broadcast(v.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want [0 1 2]", order)
	}
}

func TestBarrierReleasesAllParties(t *testing.T) {
	e := NewEngine(4)
	b := NewBarrier(3)
	var after []Time
	for i := 0; i < 3; i++ {
		d := Duration(i+1) * Millisecond
		e.Spawn("party", false, func(v *Env) {
			v.Charge(d)
			b.Await(v)
			after = append(after, v.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 {
		t.Fatalf("parties released = %d, want 3", len(after))
	}
	for _, ts := range after {
		if ts != Time(3*Millisecond) {
			t.Fatalf("release at %v, want 3ms (slowest party)", ts)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	e := NewEngine(4)
	b := NewBarrier(2)
	rounds := make([][]int, 2)
	for i := 0; i < 2; i++ {
		e.Spawn("party", false, func(v *Env) {
			for r := 0; r < 2; r++ {
				v.Charge(1 * Millisecond)
				got := b.Await(v)
				rounds[r] = append(rounds[r], got)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if len(rounds[r]) != 2 {
			t.Fatalf("round %d released %d parties, want 2", r, len(rounds[r]))
		}
		for _, got := range rounds[r] {
			if got != r {
				t.Fatalf("round index = %d, want %d", got, r)
			}
		}
	}
}

func TestDaemonIsTerminatedAfterWorkloadEnds(t *testing.T) {
	e := NewEngine(2)
	daemonRan := false
	e.Spawn("daemon", true, func(v *Env) {
		for {
			daemonRan = true
			v.Sleep(1 * Millisecond)
		}
	})
	e.Spawn("work", false, func(v *Env) {
		v.Charge(5 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !daemonRan {
		t.Fatal("daemon never ran")
	}
	if e.Now() != Time(5*Millisecond) {
		t.Fatalf("engine stopped at %v, want 5ms", e.Now())
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	e.Spawn("stuck", false, func(v *Env) {
		v.Wait(&c) // never signalled
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", false, func(v *Env) {
		panic("boom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(4)
	var wg WaitGroup
	wg.Add(3)
	sum := 0
	for i := 0; i < 3; i++ {
		d := Duration(i+1) * Millisecond
		e.Spawn("w", false, func(v *Env) {
			v.Charge(d)
			sum++
			wg.DoneOne(v.Engine())
		})
	}
	var joined Time
	e.Spawn("join", false, func(v *Env) {
		wg.Wait(v)
		joined = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
	if joined != Time(3*Millisecond) {
		t.Fatalf("join at %v, want 3ms", joined)
	}
}

func TestAfterCallbackRuns(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("w", false, func(v *Env) { v.Sleep(10 * Millisecond) })
	e.After(4*Millisecond, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(4*Millisecond) {
		t.Fatalf("callback at %v, want 4ms", at)
	}
}

func TestStopEndsRunEarly(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("w", false, func(v *Env) {
		for {
			v.Charge(1 * Millisecond)
			if v.Now() >= Time(5*Millisecond) {
				v.Engine().Stop()
				v.Yield()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() < Time(5*Millisecond) || e.Now() > Time(6*Millisecond) {
		t.Fatalf("engine stopped at %v, want ~5ms", e.Now())
	}
}

// runScenario runs a fixed mixed scenario and returns a fingerprint of
// simulated timestamps; used to assert determinism.
func runScenario(seed uint64) []Time {
	e := NewEngine(3)
	rng := NewRNG(seed)
	var stamps []Time
	b := NewBarrier(4)
	for i := 0; i < 4; i++ {
		r := rng.Stream(uint64(i))
		e.Spawn("w", false, func(v *Env) {
			for it := 0; it < 5; it++ {
				v.Charge(Duration(r.Intn(1000)+1) * Microsecond)
				if r.Bool(0.3) {
					v.Sleep(Duration(r.Intn(500)) * Microsecond)
				}
				b.Await(v)
				stamps = append(stamps, v.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return stamps
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a := runScenario(42)
	b := runScenario(42)
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timestamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := runScenario(1)
	b := runScenario(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDoneCondSignalsWaiters(t *testing.T) {
	e := NewEngine(2)
	worker := e.Spawn("worker", false, func(v *Env) {
		v.Charge(2 * Millisecond)
	})
	var sawDone bool
	e.Spawn("watcher", false, func(v *Env) {
		for !worker.Finished() {
			v.Wait(worker.Done())
		}
		sawDone = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("watcher never observed completion")
	}
}

// Property: RNG.Float64 is always in [0,1) and Intn in range.
func TestRNGRangesProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		r := NewRNG(seed)
		n := int(nRaw%1000) + 1
		for i := 0; i < 50; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
			if k := r.Intn(n); k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: derived streams are independent of parent draws and reproducible.
func TestRNGStreamReproducibleProperty(t *testing.T) {
	f := func(seed, id uint64) bool {
		a := NewRNG(seed).Stream(id).Uint64()
		parent := NewRNG(seed)
		parent.Uint64() // perturb parent
		b := parent.Stream(id).Uint64()
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(7)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGMeanRoughlyHalf(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %f, want ~0.5", mean)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Time(5), "5ns"},
		{Time(2 * Microsecond), "2.000µs"},
		{Time(3 * Millisecond), "3.000ms"},
		{Time(7 * Second), "7.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestChargeQuantumSplitsWork(t *testing.T) {
	// A second proc arriving mid-charge should dilate the remainder only.
	e := NewEngine(1)
	e.SetQuantum(1 * Millisecond)
	var end1 Time
	e.Spawn("first", false, func(v *Env) {
		v.Charge(10 * Millisecond)
		end1 = v.Now()
	})
	e.Spawn("late", false, func(v *Env) {
		v.Sleep(5 * Millisecond) // arrive after first has done 5ms
		v.Charge(10 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// first: 5ms alone + 5ms dilated 2x = 15ms total.
	if end1 != Time(15*Millisecond) {
		t.Fatalf("first ended at %v, want 15ms", end1)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.After(-1, func() {})
}

func TestChargeNegativePanicsInsideProc(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", false, func(v *Env) {
		v.Charge(-5)
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected error from negative charge")
	}
}

func TestZeroChargeIsInstant(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("w", false, func(v *Env) {
		v.Charge(0)
		if v.Now() != 0 {
			t.Errorf("zero charge advanced time to %v", v.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromWithinProc(t *testing.T) {
	e := NewEngine(2)
	var childEnd Time
	e.Spawn("parent", false, func(v *Env) {
		v.Charge(1 * Millisecond)
		v.Engine().Spawn("child", false, func(cv *Env) {
			cv.Charge(2 * Millisecond)
			childEnd = cv.Now()
		})
		v.Charge(1 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != Time(3*Millisecond) {
		t.Fatalf("child ended at %v, want 3ms", childEnd)
	}
}

func TestSignalOnEmptyCondIsNoop(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	e.Spawn("w", false, func(v *Env) {
		if c.Signal(v.Engine()) {
			t.Error("signal on empty cond reported a wakeup")
		}
		if c.Broadcast(v.Engine()) != 0 {
			t.Error("broadcast on empty cond woke procs")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("lognormal produced %v", v)
		}
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] {
			t.Fatal("shuffle duplicated elements")
		}
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Fatal("shuffle lost elements")
	}
}

// BenchmarkEngineHandoff measures the cost of a cross-proc switch: two
// procs ping-pong through a Cond, so every iteration parks each proc once
// and hands control to the other (two switches). ns/switch is half of
// ns/op.
func BenchmarkEngineHandoff(b *testing.B) {
	e := NewEngine(1)
	var c Cond
	turn := 0
	n := b.N
	e.Spawn("ping", false, func(v *Env) {
		for i := 0; i < n; i++ {
			turn = 1
			c.Signal(e)
			for turn != 0 {
				v.Wait(&c)
			}
		}
	})
	e.Spawn("pong", false, func(v *Env) {
		for i := 0; i < n; i++ {
			for turn != 1 {
				v.Wait(&c)
			}
			turn = 0
			c.Signal(e)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n), "ns/switch")
}
