package paths

// Fallbacks reads the count of VLB draws returned outside their set
// (sampleWhere's shortest-seen path, an Explicit's last draw) for the
// tests of package paths_test.
func Fallbacks() int64 { return fallbacks.Load() }
