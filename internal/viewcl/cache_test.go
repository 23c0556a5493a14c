package viewcl

import (
	"fmt"
	"testing"

	"visualinux/internal/expr"
	"visualinux/internal/kernelsim"
)

// TestParseCacheBoundedUnderChurn feeds the cache far more distinct
// programs than its capacity — the dynamically-generated-source shape vchat
// produces — and checks it stays bounded, evicts, and still serves repeats.
func TestParseCacheBoundedUnderChurn(t *testing.T) {
	old := SetParseCacheCap(8)
	defer SetParseCacheCap(old)

	_, misses0, evicts0 := ParseCacheStats()
	for i := 0; i < 100; i++ {
		src := fmt.Sprintf("plot ${%d}", i)
		if _, err := ParseCached(fmt.Sprintf("churn-%d", i), src); err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
	}
	if n := ParseCacheLen(); n > 8 {
		t.Fatalf("cache grew past its cap: len=%d cap=8", n)
	}
	_, misses1, evicts1 := ParseCacheStats()
	if misses1-misses0 != 100 {
		t.Fatalf("expected 100 parses, got %d", misses1-misses0)
	}
	if evicts1-evicts0 < 92 {
		t.Fatalf("expected >=92 evictions, got %d", evicts1-evicts0)
	}

	// Recently used entries survive; re-parsing one is a hit.
	hits0, misses2, _ := ParseCacheStats()
	if _, err := ParseCached("churn-99", "plot ${99}"); err != nil {
		t.Fatal(err)
	}
	hits1, misses3, _ := ParseCacheStats()
	if hits1 != hits0+1 || misses3 != misses2 {
		t.Fatalf("repeat of a cached program should hit: hits %d->%d misses %d->%d",
			hits0, hits1, misses2, misses3)
	}
}

// TestParseCachedSharesPrograms checks two lookups of the same (name, src)
// return the identical *Program, which is what makes the shared compile
// cache's pointer key meaningful.
func TestParseCachedSharesPrograms(t *testing.T) {
	p1, err := ParseCached("share", "plot ${1}")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseCached("share", "plot ${1}")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("ParseCached returned distinct programs for identical source")
	}
}

// TestParseCacheLRUOrder verifies least-recently-used eviction: touching an
// old entry protects it over an untouched sibling.
func TestParseCacheLRUOrder(t *testing.T) {
	old := SetParseCacheCap(2)
	defer SetParseCacheCap(old)

	a, _ := ParseCached("lru-a", "plot ${1}")
	ParseCached("lru-b", "plot ${2}")
	ParseCached("lru-a", "plot ${1}") // touch a: b is now LRU
	ParseCached("lru-c", "plot ${3}") // evicts b

	a2, _ := ParseCached("lru-a", "plot ${1}")
	if a2 != a {
		t.Fatal("touched entry was evicted instead of the LRU one")
	}
}

// TestCompileCacheHoldsNoPins: an interpreter keeps no lowered programs of
// its own, so a program the shared LRU evicted lowers again on its next run
// instead of staying pinned for the interpreter's lifetime.
func TestCompileCacheHoldsNoPins(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	env := expr.NewEnv(k.Target())
	kernelsim.RegisterHelpers(env)
	in := New(env)
	progs := make([]*Program, DefaultCompileCacheCap+1)
	for i := range progs {
		src := fmt.Sprintf("define T%d as Box<task_struct> [\n    Text pid\n]\nplot T%d(${&init_task})\n", i, i)
		p, err := Parse(fmt.Sprintf("evict-%d", i), src)
		if err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
		if _, err := in.Run(p); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		progs[i] = p
	}
	before := CompileCount()
	if _, err := in.Run(progs[0]); err != nil {
		t.Fatal(err)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("re-running the evicted program lowered %d times, want 1", got)
	}
}
