//go:build race

package viewcl_test

// The race detector charges every memory access on both engines alike,
// which compresses the compiled engine's advantage (about 2.5x instead of
// 3–4x), so the speed gate loosens under -race. It also makes sync.Pool
// drop items at random, so allocation counts stop being exact.
func init() {
	minColdSpeedup = 1.5
	raceBuild = true
}
