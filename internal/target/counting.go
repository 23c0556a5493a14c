package target

// Counted forwards reads to an underlying target while keeping its own
// Stats. The Table 4 harness wraps the shared kernel target once per
// measurement, so concurrent extraction workers each get an isolated
// counter instead of racing to diff one shared Stats.
//
// Counted declares only what it counts: reads and stub-side metadata round
// trips. Every other capability of the chain is found below it (Find).
type Counted struct {
	Layer
	stats Stats
}

// WithStats returns a view of t with a fresh, independent Stats.
func WithStats(t Target) *Counted { return &Counted{Layer: Layer{t}} }

// ReadMemory implements Target.
func (c *Counted) ReadMemory(addr uint64, buf []byte) error {
	c.stats.CountRead(len(buf))
	return c.Target.ReadMemory(addr, buf)
}

// HashBlocks implements PageHasher when the chain below does. A served hash
// query is one stub-side metadata round trip.
func (c *Counted) HashBlocks(addr, size uint64) ([]uint64, bool) {
	hashes, ok := HashBlocks(c.Target, addr, size)
	if ok {
		c.stats.HashChecks.Add(1)
	}
	return hashes, ok
}

// DirtySince implements DirtyTracker when the chain below does.
func (c *Counted) DirtySince(mark uint64) ([]Range, uint64, bool) {
	ranges, next, ok := DirtySince(c.Target, mark)
	if ok {
		c.stats.HashChecks.Add(1)
	}
	return ranges, next, ok
}

// Stats implements Target.
func (c *Counted) Stats() *Stats { return &c.stats }

var _ Target = (*Counted)(nil)
