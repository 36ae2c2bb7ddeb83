package paths

// Fallbacks reads the count of VLB draws returned outside their set
// (sampleWhere's shortest-seen path, an Explicit's last draw) for the
// tests of package paths_test.
func Fallbacks() int64 { return fallbacks.Load() }

// materializeID returns path id of pair (s, d) of st: its Ports walked
// out of s.
func materializeID(st *Store, s, d int, id PathID) Path {
	var p Path
	st.materialize(s, st.Ports(s, d, id), &p)
	return p
}
