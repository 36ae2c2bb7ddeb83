package traffic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tugal/internal/rng"
)

// Trace support: record the (source, destination) stream a pattern
// produces and replay it later — for sharing workloads between runs,
// for deterministic cross-simulator comparisons, and for feeding
// externally captured communication traces into the simulator.
//
// The on-disk format is a little-endian binary stream:
//
//	magic "DFTR" | uint32 version | uint32 numNodes |
//	repeated records: uint32 src | uint32 dst
//
// Records are in generation order. Replay hands each source its own
// recorded sub-stream, so the trace is placement-independent at the
// node level.

const traceMagic = "DFTR"

// traceVersion is bumped on format changes.
const traceVersion = 1

// maxTraceNodes is the largest node count ReadTrace accepts. The
// reader allocates 28 bytes a node on the header's say-so, before it
// has seen a record; a million nodes is a hundred times the paper's
// largest machine and keeps what 12 hostile bytes can ask for at 28 MB.
const maxTraceNodes = 1 << 20

// Recorder wraps a pattern and appends every generated (src, dst) to
// an in-memory trace. Not safe for concurrent simulations, and it
// deliberately does not implement Cloner: cloning would scatter the
// recording across instances. Capture traces with a single
// sequential run (e.g. netsim.New + Run directly, or a one-worker
// exec.Pool), then share the resulting Replay freely.
type Recorder struct {
	Base     Pattern
	NumNodes int
	Records  [][2]int32
}

// NewRecorder wraps base.
func NewRecorder(base Pattern, numNodes int) *Recorder {
	return &Recorder{Base: base, NumNodes: numNodes}
}

// Name implements Pattern.
func (r *Recorder) Name() string { return r.Base.Name() + "+rec" }

// Dest implements Pattern.
func (r *Recorder) Dest(rs *rng.Source, src int) (int, bool) {
	d, ok := r.Base.Dest(rs, src)
	if ok {
		r.Records = append(r.Records, [2]int32{int32(src), int32(d)})
	}
	return d, ok
}

// WriteTo serializes the trace.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	if _, err := bw.WriteString(traceMagic); err != nil {
		return n, err
	}
	n += 4
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(r.NumNodes))
	if _, err := bw.Write(hdr); err != nil {
		return n, err
	}
	n += 8
	rec := make([]byte, 8)
	for _, pr := range r.Records {
		binary.LittleEndian.PutUint32(rec[0:], uint32(pr[0]))
		binary.LittleEndian.PutUint32(rec[4:], uint32(pr[1]))
		if _, err := bw.Write(rec); err != nil {
			return n, err
		}
		n += 8
	}
	return n, bw.Flush()
}

// Replay replays a recorded trace: each source receives its recorded
// destinations in order; once a source's sub-stream is exhausted it
// falls silent. One Replay instance must not be shared by concurrent
// simulations; it implements Cloner, so sweep.Fixed hands each
// concurrently running simulation its own rewound clone (the
// immutable per-source streams are shared, the cursors are not).
type Replay struct {
	numNodes int
	perSrc   [][]int32
	next     []int32
	name     string
}

// ReadTrace parses a serialized trace.
func ReadTrace(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("traffic: trace header: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("traffic: bad trace magic %q", magic)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("traffic: trace header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != traceVersion {
		return nil, fmt.Errorf("traffic: unsupported trace version %d", v)
	}
	numNodes := int(binary.LittleEndian.Uint32(hdr[4:]))
	if numNodes <= 0 || numNodes > maxTraceNodes {
		return nil, fmt.Errorf("traffic: implausible node count %d", numNodes)
	}
	rp := &Replay{
		numNodes: numNodes,
		perSrc:   make([][]int32, numNodes),
		next:     make([]int32, numNodes),
		name:     "trace",
	}
	rec := make([]byte, 8)
	for {
		if _, err := io.ReadFull(br, rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("traffic: trace record: %w", err)
		}
		src, dst := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
		if src >= uint32(numNodes) || dst >= uint32(numNodes) {
			return nil, fmt.Errorf("traffic: trace record out of range (%d -> %d)", src, dst)
		}
		rp.perSrc[src] = append(rp.perSrc[src], int32(dst))
	}
	return rp, nil
}

// Name implements Pattern.
func (rp *Replay) Name() string { return rp.name }

// Dest implements Pattern.
func (rp *Replay) Dest(_ *rng.Source, src int) (int, bool) {
	if src >= rp.numNodes {
		return src, false
	}
	k := rp.next[src]
	if int(k) >= len(rp.perSrc[src]) {
		return src, false
	}
	rp.next[src] = k + 1
	return int(rp.perSrc[src][k]), true
}

// ClonePattern implements Cloner: the clone shares the recorded
// streams but replays them from the start with its own cursors.
func (rp *Replay) ClonePattern() Pattern {
	return &Replay{
		numNodes: rp.numNodes,
		perSrc:   rp.perSrc,
		next:     make([]int32, rp.numNodes),
		name:     rp.name,
	}
}

// Rewind restarts every source's sub-stream.
func (rp *Replay) Rewind() {
	for i := range rp.next {
		rp.next[i] = 0
	}
}

// Remaining reports how many records are left to replay.
func (rp *Replay) Remaining() int {
	total := 0
	for i, s := range rp.perSrc {
		total += len(s) - int(rp.next[i])
	}
	return total
}
