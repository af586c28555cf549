// Package bufpool is a size-classed free list for the serving data
// plane's byte buffers: request frames, response frames, and the
// destination arenas batch reads scatter into. Buffers recycle through
// power-of-two size classes (64 B … 4 MiB, matching the wire layer's
// maxFrame), so a steady-state server allocates nothing per request —
// every Get is satisfied from the class pool and every Put refills it.
//
// Ownership contract: a buffer obtained from Get belongs to exactly one
// owner at a time. Put transfers it back to the pool; the caller must
// not touch it afterwards. Losing a buffer (never calling Put) is safe
// — the GC reclaims it and the pool refills on demand — so a buffer
// whose owner went away (the response to a call abandoned at its
// deadline) may simply be dropped.
//
// Tests flip the package into check mode (SetCheck), which trades the
// lock-free fast path for a deterministic accounting pool: double puts
// and writes into a buffer after its Put (use-after-put) panic at the
// offending Put/Get, and Outstanding reports buffers currently checked
// out, so leaks are assertable.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	minClassBits = 6  // 64 B — smaller asks round up
	maxClassBits = 22 // 4 MiB — the wire layer's maxFrame
	numClasses   = maxClassBits - minClassBits + 1

	// poison fills recycled buffers in check mode; a Get that finds a
	// disturbed byte proves someone wrote through a stale reference.
	poison = 0xDB
)

// holder carries a buffer through a sync.Pool without boxing the slice
// header into an interface (which would allocate on every Put). Empty
// holders recycle through headerPool, so the steady state allocates
// neither buffers nor holders.
type holder struct{ b []byte }

var (
	classes    [numClasses]sync.Pool // *holder with a buffer attached
	headerPool sync.Pool             // *holder, detached
)

// classFor returns the class index whose buffers hold n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // smallest power of two >= n (n>=2)
	if n <= 1<<minClassBits {
		return 0
	}
	return b - minClassBits
}

// classOf returns the class index owning capacity c, or -1 when c is
// not exactly a class size (such buffers are not recycled).
func classOf(c int) int {
	if c&(c-1) != 0 || c < 1<<minClassBits || c > 1<<maxClassBits {
		return -1
	}
	return bits.TrailingZeros(uint(c)) - minClassBits
}

// Get returns a buffer of length n. Its capacity is the next size
// class, so appends within the class never reallocate. Asks beyond the
// largest class fall back to a plain allocation (Put will drop them).
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative length")
	}
	cls := classFor(n)
	if cls < 0 {
		return make([]byte, n)
	}
	if checkMode.Load() {
		return checkGet(n, cls)
	}
	h, _ := classes[cls].Get().(*holder)
	if h == nil {
		return make([]byte, n, 1<<(cls+minClassBits))
	}
	b := h.b[:n]
	h.b = nil
	headerPool.Put(h)
	return b
}

// Put recycles b into the class owning its capacity. Buffers whose
// capacity is not a class size — grown past their class by append, or
// allocated elsewhere — are dropped silently. b must not be used after
// Put.
func Put(b []byte) {
	cls := classOf(cap(b))
	if cls < 0 {
		return
	}
	if checkMode.Load() {
		checkPut(b, cls)
		return
	}
	h, _ := headerPool.Get().(*holder)
	if h == nil {
		h = new(holder)
	}
	h.b = b[:cap(b)]
	classes[cls].Put(h)
}

// --- check mode -----------------------------------------------------

var (
	checkMode atomic.Bool

	checkMu     sync.Mutex
	checkFree   [numClasses][][]byte // deterministic LIFO free lists
	checkPooled map[*byte]struct{}   // first-byte pointers of pooled buffers
	checkOut    int                  // buffers currently checked out
)

// SetCheck switches the accounting pool on or off. Turning it on (or
// off) resets the check-mode state; the lock-free pools are left alone.
// Intended for tests only — the two modes do not share buffers.
func SetCheck(on bool) {
	checkMu.Lock()
	defer checkMu.Unlock()
	checkMode.Store(on)
	for i := range checkFree {
		checkFree[i] = nil
	}
	checkPooled = map[*byte]struct{}{}
	checkOut = 0
}

// Outstanding reports how many check-mode buffers are currently checked
// out (Get without a matching Put) — the leak detector's primitive.
func Outstanding() int {
	checkMu.Lock()
	defer checkMu.Unlock()
	return checkOut
}

func checkGet(n, cls int) []byte {
	checkMu.Lock()
	defer checkMu.Unlock()
	checkOut++
	free := checkFree[cls]
	if len(free) == 0 {
		return make([]byte, n, 1<<(cls+minClassBits))
	}
	b := free[len(free)-1]
	checkFree[cls] = free[:len(free)-1]
	delete(checkPooled, &b[0])
	for i, v := range b {
		if v != poison {
			panic(fmt.Sprintf("bufpool: pooled buffer disturbed at byte %d (write after Put?)", i))
		}
	}
	return b[:n]
}

func checkPut(b []byte, cls int) {
	b = b[:cap(b)]
	checkMu.Lock()
	defer checkMu.Unlock()
	if _, dup := checkPooled[&b[0]]; dup {
		panic("bufpool: double Put of the same buffer")
	}
	for i := range b {
		b[i] = poison
	}
	checkPooled[&b[0]] = struct{}{}
	checkFree[cls] = append(checkFree[cls], b)
	if checkOut > 0 {
		checkOut--
	}
}
