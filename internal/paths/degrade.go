package paths

import (
	"fmt"
	"slices"
	"time"

	"tugal/internal/exec"
	"tugal/internal/topo"
)

// sameDead reports whether two masks describe one degraded topology:
// the same mask, or equal failure counts over the same dead channels.
func sameDead(a, b *topo.FailureMask) bool {
	if a == b || a == nil || b == nil {
		return a == b
	}
	ag, al, as := a.Counts()
	bg, bl, bs := b.Counts()
	return ag == bg && al == bl && as == bs && slices.Equal(a.DeadDense(), b.DeadDense())
}

// degradedStore is the *Store case of the two functions below: a store
// already compiled under mask passes through; any other is filtered — a
// row-parallel mark of the stored paths that cross a dead channel of
// mask (Delta.AppendIDs), then Without — into a new store that keeps st's
// name, conventional flag and label. mask must include every failure st
// was compiled under, or the result would claim a mask it does not obey:
// that panics.
func degradedStore(st *Store, mask *topo.FailureMask) *Store {
	if mask == nil || sameDead(st.mask, mask) {
		return st
	}
	if !covers(mask, st.mask) {
		panic(fmt.Sprintf("paths: %s was compiled under %v, and %v does not include it", st.Name(), st.mask, mask))
	}
	start := time.Now()
	kills := NewDelta(nil, mask, mask.DeadChannels())
	drop := NewIDSet(st.NumPaths())
	exec.Default().RunRows("paths/degrade", st.n, func(s int) {
		marks := rowBits{set: drop, word: -1}
		var ids []PathID
		for d := 0; d < st.n; d++ {
			ids = kills.AppendIDs(st, s, d, ids[:0])
			for _, id := range ids {
				marks.add(id)
			}
		}
		marks.flush()
	})
	out := st.Without(drop)
	out.Label, out.name, out.full, out.mask = st.Label, st.name, st.full, mask
	out.buildTime = time.Since(start)
	return out
}

// covers reports whether mask kills every channel and switch old does
// (nil: none).
func covers(mask, old *topo.FailureMask) bool {
	if old == nil {
		return true
	}
	for ch, dead := range old.DeadDense() {
		if dead && !mask.DeadDense()[ch] {
			return false
		}
	}
	for sw := range old.Topo().NumSwitches() {
		if old.SwitchDead(sw) && !mask.SwitchDead(sw) {
			return false
		}
	}
	return true
}

// Compile materializes pol into an immutable Store: the same path set
// per pair (in Enumerate order), with O(1) allocation-free sampling.
// Compilation enumerates every pair, save for Full on the pristine
// topology, whose store is arithmetic — go through Compiled on
// topologies whose path count may exceed memory.
func Compile(t *topo.Compiled, pol Policy) *Store { return CompileDegraded(t, pol, nil) }

// CompileDegraded compiles pol on t with every path crossing a dead
// channel of mask excluded. A pol that already is a Store is filtered,
// not enumerated again, and passes through when it was compiled under
// the same dead set.
func CompileDegraded(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Store {
	if st, ok := pol.(*Store); ok {
		return degradedStore(st, mask)
	}
	st, total := compile(t, pol, mask)
	if st == nil {
		panic(fmt.Sprintf("paths: %s on %s: %d paths, in the set or in the full set its bits are placed in, more than the int32 PathID space holds",
			pol.Name(), t.Label(), total))
	}
	return st
}

// Compiled is the one place the interpreted/compiled choice is made:
// pol as a Store under mask (nil: none) when its estimated pristine size
// fits DefaultCompileBudget (the degraded set is never larger), so do
// its bits unless it is the pristine full set (fits), and its counted
// size fits the PathID space, the build reported to pool's observer
// as compile/<name>; ok=false when it does not, and the caller keeps the
// interpreted policy — the Figure 13/14 topology stays interpreted by
// design. A Store is filtered under mask (CompileDegraded), and passes
// through unreported when it is already under it.
func Compiled(pool *exec.Pool, t *topo.Compiled, pol Policy, mask *topo.FailureMask) (*Store, bool) {
	st, ok := pol.(*Store)
	switch {
	case ok:
		st = degradedStore(st, mask)
	case !fits(t, pol, mask, DefaultCompileBudget):
		return nil, false
	default:
		if st, _ = compile(t, pol, mask); st == nil {
			return nil, false
		}
	}
	if Policy(st) != pol {
		pool.Report(exec.Stat{Label: "compile/" + st.Name(), Wall: st.BuildTime(), Bytes: st.Bytes()})
	}
	return st, true
}
