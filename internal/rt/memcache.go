package rt

import (
	"sync"

	"uniaddr/internal/core"
	"uniaddr/internal/mem"
	"uniaddr/internal/sched"
)

// Worker memory outlives pools (DESIGN.md §15): built fresh, a worker's
// ~3 MB arena, deque and record table are one GC cycle per NewPool and
// all of a cold Run. A pool that closes quiescent holds no frame, deque
// entry, live record or waiter, so its shutdown Resets each bundle onto a
// small process-wide free list newPool draws from. A failed pool's
// memory stays out: something may still reference it.

// memKey is the layout a bundle was built for and may be reused by.
type memKey struct {
	arenaSize, dequeCap, recordCap uint64
}

// workerMem is the memory one worker schedules over.
type workerMem struct {
	key memKey
	sched.Views
}

// memCacheCap bounds the free list, in bundles (~24 MB by default).
const memCacheCap = 8

var memCache struct {
	mu   sync.Mutex
	n    int
	free [memCacheCap]workerMem // free[:n] shelved, oldest first
}

// takeWorkerMem returns the newest shelved bundle of layout k (its lines
// are the warmest), else fresh memory.
func takeWorkerMem(k memKey) workerMem {
	c := &memCache
	c.mu.Lock()
	for i := c.n - 1; i >= 0; i-- {
		if m := c.free[i]; m.key == k {
			copy(c.free[i:c.n], c.free[i+1:c.n])
			c.n--
			c.free[c.n] = workerMem{}
			c.mu.Unlock()
			return m
		}
	}
	c.mu.Unlock()
	return workerMem{k, sched.Views{
		Arena:   mem.NewArena(core.DefaultUniBase, k.arenaSize),
		Deque:   sched.NewDeque(k.dequeCap),
		Records: sched.NewTable(k.recordCap),
	}}
}

// putWorkerMem resets a quiescent worker's bundle and shelves it,
// dropping the oldest when full (a changed layout must not pin the old).
func putWorkerMem(m workerMem) {
	m.Arena.Reset()
	m.Deque.Reset()
	m.Records.Reset()
	c := &memCache
	c.mu.Lock()
	if c.n == memCacheCap {
		copy(c.free[:], c.free[1:])
		c.n--
	}
	c.free[c.n] = m
	c.n++
	c.mu.Unlock()
}
