// Package fault provides named fault-injection sites for deterministic
// robustness testing. Production code declares a Point per interesting
// location (an executor checkpoint, a cluster search, the admission
// gate) and calls Fire at it; tests Arm points with delays, errors or
// panics and exercise the full serving path against them.
//
// Cost discipline: a disarmed site is a single atomic load of one
// package-global counter (no map lookups, no allocation), so Fire may
// sit on amortized hot-path checkpoints. Arming any point flips the
// global counter and only then do sites pay per-hit bookkeeping.
//
// The registry is global — fault injection configures the process, not
// one DB — so tests that arm points must not run in parallel with each
// other and should `defer fault.Reset()`.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// armed counts points currently carrying an action. Fire's fast path is
// one atomic load of this counter; zero means every site is a no-op.
var armed atomic.Int64

var (
	regMu    sync.Mutex
	registry = map[string]*Point{}
)

// Action describes what an armed point injects, in evaluation order:
// Delay sleeps, Fn runs (its non-nil error is returned), Panic panics,
// and finally Err is returned. Zero fields are skipped, so a pure
// Action{Delay: d} slows the site down without failing it.
type Action struct {
	// Delay sleeps synchronously at the site before anything else —
	// the lever for widening race windows and for deadline tests.
	Delay time.Duration
	// Fn runs arbitrary test logic at the site (e.g. cancel a context
	// at exactly the k-th checkpoint). A non-nil return is injected as
	// the site's error.
	Fn func() error
	// Panic, when non-nil, is panicked at the site — the input for
	// panic-containment tests.
	Panic any
	// Err is returned from Fire, surfacing as an execution error.
	Err error

	// After skips the first After hits before injecting (0 = inject
	// from the first hit). Hits are counted per Arm.
	After int64
	// Times bounds how many hits inject (0 = every hit past After).
	Times int64
}

// Point is one named injection site. Declare with New at package scope
// and call Fire where the fault should act.
type Point struct {
	name  string
	act   atomic.Pointer[armedAction]
	fired atomic.Int64
}

// armedAction pairs an Action with its per-Arm hit counter, so
// re-arming restarts After/Times from zero.
type armedAction struct {
	Action
	hits atomic.Int64
}

// New declares (and registers) an injection site. Name collisions
// return the existing point, so declaring is idempotent.
func New(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := registry[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry[name] = p
	return p
}

// Name returns the site's registered name.
func (p *Point) Name() string { return p.name }

// Fired reports how many injections this site has delivered since its
// last Arm (delays count; skipped hits under After/Times do not).
func (p *Point) Fired() int64 { return p.fired.Load() }

// Fire executes the site's armed action, returning the injected error
// (nil for delay-only actions or when the site is disarmed).
func (p *Point) Fire() error {
	if armed.Load() == 0 {
		return nil
	}
	return p.fire()
}

func (p *Point) fire() error {
	act := p.act.Load()
	if act == nil {
		return nil
	}
	n := act.hits.Add(1)
	if n <= act.After {
		return nil
	}
	if act.Times > 0 && n > act.After+act.Times {
		return nil
	}
	p.fired.Add(1)
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Fn != nil {
		if err := act.Fn(); err != nil {
			return err
		}
	}
	if act.Panic != nil {
		panic(act.Panic)
	}
	return act.Err
}

// Arm installs an action on the named site; hit counting restarts at
// zero. It errors on unknown names so tests catch renamed sites.
func Arm(name string, act Action) error {
	regMu.Lock()
	p := registry[name]
	regMu.Unlock()
	if p == nil {
		return fmt.Errorf("fault: no such point %q", name)
	}
	p.fired.Store(0)
	if old := p.act.Swap(&armedAction{Action: act}); old == nil {
		armed.Add(1)
	}
	return nil
}

// Disarm removes the named site's action (no-op when not armed).
func Disarm(name string) {
	regMu.Lock()
	p := registry[name]
	regMu.Unlock()
	if p == nil {
		return
	}
	if old := p.act.Swap(nil); old != nil {
		armed.Add(-1)
	}
}

// Reset disarms every site — pair it with Arm in a defer.
func Reset() {
	regMu.Lock()
	pts := make([]*Point, 0, len(registry))
	for _, p := range registry {
		pts = append(pts, p)
	}
	regMu.Unlock()
	for _, p := range pts {
		if old := p.act.Swap(nil); old != nil {
			armed.Add(-1)
		}
	}
}

// Names lists every registered site, sorted — the catalog chaos tests
// iterate to prove each site is containable.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the named point, or nil.
func Lookup(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Active reports whether any site is currently armed (the engine uses
// it to keep checkpoints on when no cancellation is configured).
func Active() bool { return armed.Load() > 0 }
