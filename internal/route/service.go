package route

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Service is the long-lived serving layer over compiled forwarding
// tables: an epoch-swapped table pointer read with one atomic load
// per batch on the query path, and an RCU-style writer side that
// composes a failure delta on a copy of the mask and Tables.ApplyDelta
// into a single swap.
// Every epoch is one *Tables — rows and the mask they were filtered
// under — so a swap publishes both or neither. Queries in flight
// during a swap finish against the epoch they started on — no query is
// ever dropped or torn — and the batch APIs allocate nothing once the
// caller's buffers exist.
type Service struct {
	mode      Mode
	threshold int

	cur atomic.Pointer[Tables]

	// mu serializes the writer side: mask clone, row filter, epoch
	// swap.
	mu sync.Mutex

	served  atomic.Int64
	batches atomic.Int64
	swaps   atomic.Int64
}

// NewService emits tables from the store and wraps them in a serving
// layer using the given lookup mode and UGAL threshold. The tables
// (with the store's mask, when degraded) are epoch 0: Fail derives
// every later epoch from the one before it.
func NewService(st *paths.Store, mode Mode, threshold int, cfg Config) (*Service, error) {
	tb, err := Emit(st, cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{mode: mode, threshold: threshold}
	s.cur.Store(tb)
	return s, nil
}

// Tables returns the current epoch's tables (atomic load; the result
// stays valid and consistent however many swaps follow).
func (s *Service) Tables() *Tables { return s.cur.Load() }

// Mode returns the service's lookup mode.
func (s *Service) Mode() Mode { return s.mode }

// LookupBatch resolves len(out) queries — capped by the shorter of
// src and dst, which hold node (terminal) ids — against one
// consistent table epoch, writing a Decision per query. It returns
// the number served. The whole batch is allocation-free; r drives
// the candidate draws exactly as it would drive direct routing.
func (s *Service) LookupBatch(r *rng.Source, src, dst []int32, out []Decision) int {
	m := len(out)
	if len(src) < m {
		m = len(src)
	}
	if len(dst) < m {
		m = len(dst)
	}
	tb := s.cur.Load()
	t := tb.T
	for i := 0; i < m; i++ {
		d := tb.Lookup(r, s.mode, s.threshold,
			t.SwitchOfNode(int(src[i])), t.SwitchOfNode(int(dst[i])))
		if d.Hops == 0 && !d.Refused {
			// Same-switch pair: the route is the bare ejection hop,
			// whose port is the destination's terminal index.
			d.Port = int8(t.NodeIndex(int(dst[i])))
		}
		out[i] = d
	}
	s.served.Add(int64(m))
	s.batches.Add(1)
	return m
}

// AppendRouteFor decodes decision d of a (src, dst) node query into
// full netsim route hops — the form SourceRoute builds — appending
// to buf. Refused decisions append nothing (the router's empty-route
// sentinel).
func (s *Service) AppendRouteFor(buf []netsim.RouteHop, d Decision, dstNode int32) []netsim.RouteHop {
	if d.Refused {
		return buf
	}
	t := s.cur.Load().T
	return AppendRoute(buf, d.Word, int8(t.NodeIndex(int(dstNode))))
}

// SwapStats describes one completed failure epoch.
type SwapStats struct {
	Epoch      int           `json:"epoch"`        // the new serving epoch
	NewlyDead  int           `json:"newlyDead"`    // channels the failure killed
	VLBDirty   int           `json:"vlbDirty"`     // pairs with a base-store path across a newly dead channel
	DirtyPairs int           `json:"dirtyPairs"`   // rows the table delta refiltered: VLB-dirty, MIN-dirty, new self rows
	PatchBytes int64         `json:"patchBytes"`   // Tables.PatchBytes after the swap: MIN words and dead IDs, all epochs'
	StoreBuild time.Duration `json:"storeBuildNS"` // row-list time: the pairs the delta's MIN-leg ends can touch
	TableBuild time.Duration `json:"tableBuildNS"` // ApplyDelta time, the row list included
}

// Fail applies one failure via apply (any combination of
// topo.FailureMask Fail* calls) to a copy of the serving epoch's mask,
// refilters the rows it dirtied (Tables.ApplyDelta finds them from the
// newly dead channels alone, so the first failure costs what every
// other does), and swaps mask and tables in together.
// When apply fails nothing is kept: the serving epoch and its mask are
// what they were. A failure that leaves the mask as it was
// (already-dead link) is a no-op and swaps nothing. Concurrent lookups
// are never blocked: they serve the previous epoch until the single
// atomic store below, and their own epoch stays intact after it.
func (s *Service) Fail(apply func(*topo.FailureMask) ([]topo.Channel, error)) (SwapStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	mask := topo.NewFailureMask(cur.T)
	if cur.mask != nil {
		mask = cur.mask.Clone()
	}
	g0, l0, sw0 := mask.Counts()
	delta, err := apply(mask)
	if err != nil {
		return SwapStats{}, fmt.Errorf("route: fail: %w", err)
	}
	// The counts, not the delta, say whether the mask grew: a switch
	// whose links all failed earlier dies without a newly dead channel.
	if g, l, sw := mask.Counts(); g == g0 && l == l0 && sw == sw0 {
		return SwapStats{Epoch: cur.Epoch(), PatchBytes: cur.PatchBytes()}, nil
	}
	newTb, dstats := cur.ApplyDelta(mask, delta)
	s.cur.Store(newTb)
	s.swaps.Add(1)
	return SwapStats{
		Epoch:      newTb.Epoch(),
		NewlyDead:  len(delta),
		VLBDirty:   dstats.VLBDirty,
		DirtyPairs: dstats.DirtyPairs,
		PatchBytes: newTb.PatchBytes(),
		StoreBuild: dstats.rowList,
		TableBuild: dstats.BuildTime,
	}, nil
}

// FailGlobalLink fails the global link at global port gp of switch
// sw and swaps in the filtered epoch.
func (s *Service) FailGlobalLink(sw, gp int) (SwapStats, error) {
	return s.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailGlobalLink(sw, gp)
	})
}

// FailLocalLink fails the local link between u and v and swaps in
// the filtered epoch.
func (s *Service) FailLocalLink(u, v int) (SwapStats, error) {
	return s.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailLocalLink(u, v)
	})
}

// FailSwitch fails a whole switch and swaps in the filtered epoch.
func (s *Service) FailSwitch(sw int) (SwapStats, error) {
	return s.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailSwitch(sw)
	})
}

// Counters reports lifetime serving counters: lookups served,
// batches served, epochs swapped in.
func (s *Service) Counters() (served, batches, swaps int64) {
	return s.served.Load(), s.batches.Load(), s.swaps.Load()
}
