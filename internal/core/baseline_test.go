package core

import (
	"os"
	"path/filepath"
	"testing"
)

// The committed ledger's steady section is the diagnosis baseline: figures
// whose steady round cost link time are installed, fully reused ones (0 ms)
// are not, and a document without such a row in its steady section is
// refused.
func TestLoadBaselineFile(t *testing.T) {
	s := &Session{}
	if err := s.LoadBaselineFile("../../LEDGER.json"); err != nil {
		t.Fatal(err)
	}
	if ms, ok := s.baselineFor("fig3-4"); !ok || ms != 5.512 {
		t.Errorf("baseline for 3-4 = %v, %v; want 5.512 ms", ms, ok)
	}
	if ms, ok := s.baselineFor("4-5"); ok {
		t.Errorf("fully reused figure 4-5 installed at %v ms", ms)
	}

	for name, doc := range map[string]string{
		"zero steady rows":      `{"steady":{"rows":[{"figure":"4-5","steady_kgdb_ms":0}]}}`,
		"rows outside a steady": `{"rows":[{"figure":"3-4","steady_kgdb_ms":5.512}]}`,
	} {
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := (&Session{}).LoadBaselineFile(path); err == nil {
			t.Errorf("%s: document accepted", name)
		}
	}
}
