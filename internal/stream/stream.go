// Package stream is the push plane of the visualizer: a fan-out broker
// that delivers pane-level delta frames to any number of subscribed
// clients the moment a stop event lands, replacing poll+304 with push
// (ROADMAP item 2). The broker never blocks a publisher and never grows
// without bound:
//
//   - Fast clients get every frame, in publish order, through a bounded
//     FIFO queue.
//   - A client whose queue fills degrades to latest-wins: further frames
//     land in a per-pane coalescing slot, so the client converges on each
//     pane's newest content while the superseded frames are counted as
//     dropped. Once both queue and slots drain, the client is fast again.
//   - Memory per client is bounded by the queue capacity plus one slot per
//     subscribed pane; the broker spawns no goroutines of its own, so a
//     departed client leaves nothing behind.
//
// Every hop is observed: per-client send-lag and queue-depth gauges (slot-
// keyed so connection churn cannot grow the registry), sent / dropped /
// coalesced frame counters, and a Health snapshot the /debug/stream
// surface and the vchat stream diagnosis answer from. The bytes inside a
// Frame, the body and its quoted form, come from the server's per-pane
// serialization cache — the broker only moves pointers, so N clients cost
// one encode and one quote.
package stream

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"visualinux/internal/obs"
)

// DefaultQueueCap is the per-client FIFO bound. Small on purpose: a
// client that cannot drain a handful of frames is a slow consumer and
// should degrade to latest-wins snapshots rather than buffer history.
const DefaultQueueCap = 16

// FanoutTracePane is the reserved pane ID fan-out round span trees are
// retained under in the TraceStore. Real panes are numbered from 1, so
// the stream's per-round traces can share the store the vchat diagnosis
// layer already reads without colliding with any extraction trace.
const FanoutTracePane = -1

// Frame is one pane delta: the serialized pane body at a specific
// version/epoch, stamped with the broadcast sequence and publish time so
// receivers can measure push lag and assert ordering.
type Frame struct {
	Seq     uint64 `json:"seq"`
	Round   uint64 `json:"round"` // stop-event round that produced the frame
	Pane    int    `json:"pane"`
	Version int    `json:"version"`
	Epoch   int    `json:"epoch"`
	ETag    string `json:"etag"`
	Format  string `json:"format"`
	// Snapshot marks an on-subscribe catch-up frame (current pane state)
	// rather than a stop-event delta.
	Snapshot bool `json:"snapshot,omitempty"`
	// Coalesced is set on delivery when this frame stood in for one or
	// more older frames the client was too slow to receive.
	Coalesced bool `json:"coalesced,omitempty"`
	// Body is the serialized pane — byte-identical to what GET
	// /api/pane?id=N&format=F returns at the same version/epoch.
	Body []byte `json:"-"`
	// Quoted is Body as a JSON string literal, quoted once by the publisher
	// and shared read-only by every client the frame reaches.
	Quoted []byte `json:"-"`

	published time.Time
}

// Broker fans frames out to subscribed clients. All methods are safe for
// concurrent use; Publish never blocks on a slow client.
type Broker struct {
	o *obs.Observer

	mu       sync.Mutex
	clients  map[int]*Client
	nextID   int
	seq      uint64
	queueCap int
	slots    []bool // slot occupancy; index keys per-client gauges
	closed   bool
}

// NewBroker creates a broker reporting into o (nil disables metrics).
// queueCap bounds each client's FIFO (<=0 uses DefaultQueueCap).
func NewBroker(o *obs.Observer, queueCap int) *Broker {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	return &Broker{o: o, clients: make(map[int]*Client), queueCap: queueCap}
}

// Client is one stream subscriber. The serving goroutine (the SSE handler
// or a bench consumer) pulls frames with Next; the broker pushes into the
// client's bounded buffer from Publish.
type Client struct {
	ID     int
	Slot   int              // gauge-key slot, recycled after disconnect
	Format string           // pane serialization format this client receives
	Subs   map[int]struct{} // subscribed pane IDs; nil = all panes

	b      *Broker
	notify chan struct{} // cap-1 doorbell
	done   chan struct{}

	mu           sync.Mutex
	queue        []*Frame       // FIFO while the client keeps up
	pending      map[int]*Frame // latest-wins per pane once the FIFO filled
	pendingSup   map[int]uint64 // frames superseded per pending pane
	closed       bool
	sent         uint64
	dropped      uint64
	coalesced    uint64
	lastSeq      uint64 // newest seq enqueued for this client
	deliveredSeq uint64 // newest seq handed to the writer
	lastLagMS    float64
	connected    time.Time

	lagGauge   *obs.Gauge
	depthGauge *obs.Gauge
	lagName    string
	depthName  string
}

// QueueCap reports the broker's per-client FIFO bound.
func (b *Broker) QueueCap() int { return b.queueCap }

// Subscribe registers a client receiving the given serialization format.
// panes narrows the subscription (empty = every pane). The caller owns the
// client's consumption loop and must Unsubscribe when done.
func (b *Broker) Subscribe(format string, panes []int) *Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	c := &Client{
		ID:        b.nextID,
		Format:    format,
		b:         b,
		notify:    make(chan struct{}, 1),
		done:      make(chan struct{}),
		connected: time.Now(),
	}
	if len(panes) > 0 {
		c.Subs = make(map[int]struct{}, len(panes))
		for _, id := range panes {
			c.Subs[id] = struct{}{}
		}
	}
	c.Slot = b.takeSlotLocked()
	if b.o != nil {
		c.lagName = fmt.Sprintf(`vl_stream_client_lag_ms{client="s%d"}`, c.Slot)
		c.depthName = fmt.Sprintf(`vl_stream_client_queue_depth{client="s%d"}`, c.Slot)
		c.lagGauge = b.o.Registry.Gauge(c.lagName, "per-client stop-to-wire lag of the most recent delivered frame")
		c.depthGauge = b.o.Registry.Gauge(c.depthName, "per-client count of enqueued but undelivered frames")
	}
	b.clients[c.ID] = c
	if b.o != nil {
		b.o.StreamConnects.Inc()
		b.o.StreamClients.Set(float64(len(b.clients)))
	}
	if b.closed {
		c.close()
	}
	return c
}

// takeSlotLocked hands out the smallest free slot index, so the set of
// per-client gauge series is bounded by the maximum concurrent client
// count, not by how many clients ever connected.
func (b *Broker) takeSlotLocked() int {
	for i, used := range b.slots {
		if !used {
			b.slots[i] = true
			return i
		}
	}
	b.slots = append(b.slots, true)
	return len(b.slots) - 1
}

// Unsubscribe removes a client: its buffers are released, its slot (and
// gauge series) recycled, and any blocked Next call returns. Idempotent.
func (b *Broker) Unsubscribe(c *Client) {
	if c == nil {
		return
	}
	b.mu.Lock()
	if _, ok := b.clients[c.ID]; !ok {
		b.mu.Unlock()
		return
	}
	delete(b.clients, c.ID)
	b.slots[c.Slot] = false
	if b.o != nil {
		b.o.StreamDisconnects.Inc()
		b.o.StreamClients.Set(float64(len(b.clients)))
		b.o.Registry.DropGauge(c.lagName)
		b.o.Registry.DropGauge(c.depthName)
	}
	b.mu.Unlock()
	c.close()
}

// Close shuts the broker down: every client is unsubscribed and further
// Publish calls are no-ops. Subscribes after Close return already-closed
// clients whose Next immediately reports no more frames.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	clients := make([]*Client, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, c)
	}
	b.mu.Unlock()
	for _, c := range clients {
		b.Unsubscribe(c)
	}
}

// ClientCount reports how many clients are connected.
func (b *Broker) ClientCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// Seq reports the newest broadcast sequence number assigned.
func (b *Broker) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// FormatsInUse reports how many clients want each serialization format —
// the publisher encodes each changed pane once per format that has at
// least one subscriber, and not at all otherwise.
func (b *Broker) FormatsInUse() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int)
	for _, c := range b.clients {
		out[c.Format]++
	}
	return out
}

// Publish fans one stop-event round's frames out to every subscribed
// client, assigning broadcast sequence numbers in order. It never blocks:
// a client that cannot keep up degrades to latest-wins coalescing. When
// tr is non-nil, one child span per client records what the fan-out did
// for it. Frames must not be mutated after publishing.
func (b *Broker) Publish(round uint64, frames []*Frame, tr *obs.Span) {
	if len(frames) == 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, f := range frames {
		b.seq++
		f.Seq = b.seq
		f.Round = round
		f.published = now
	}
	for _, c := range b.clients {
		enq, dropped := 0, uint64(0)
		for _, f := range frames {
			if !c.wants(f) {
				continue
			}
			dropped += c.enqueue(f)
			enq++
		}
		if sp := tr.StartChild("fanout.client"); sp != nil {
			sp.TagUint("client", uint64(c.ID)).
				Tag("format", c.Format).
				TagUint("enqueued", uint64(enq)).
				TagUint("superseded", dropped).
				TagUint("queue_depth", uint64(c.depth()))
			sp.End()
		}
	}
}

// SnapshotTo enqueues catch-up frames directly to one client (the
// on-subscribe "current state" push), stamping them with sequence numbers
// so ordering assertions hold across the snapshot/delta boundary.
func (b *Broker) SnapshotTo(c *Client, frames []*Frame) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, f := range frames {
		if !c.wants(f) {
			continue
		}
		b.seq++
		f.Seq = b.seq
		f.Snapshot = true
		f.published = now
		c.enqueue(f)
	}
}

// wants reports whether the client subscribes to the frame's pane+format.
func (c *Client) wants(f *Frame) bool {
	if f.Format != c.Format {
		return false
	}
	if c.Subs == nil {
		return true
	}
	_, ok := c.Subs[f.Pane]
	return ok
}

// enqueue adds one frame to the client's buffer, returning how many older
// frames it superseded. Fast path: FIFO append while the queue has room
// and no coalescing backlog exists (ordering would break if fresh frames
// jumped ahead of pending ones). Slow path: latest-wins per pane.
func (c *Client) enqueue(f *Frame) (superseded uint64) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	c.lastSeq = f.Seq
	if len(c.pending) == 0 && len(c.queue) < c.b.queueCap {
		c.queue = append(c.queue, f)
	} else {
		if c.pending == nil {
			c.pending = make(map[int]*Frame)
			c.pendingSup = make(map[int]uint64)
		}
		if _, had := c.pending[f.Pane]; had {
			superseded = 1
			c.dropped++
			c.pendingSup[f.Pane]++
			if o := c.b.o; o != nil {
				o.StreamFramesDropped.Inc()
			}
		}
		c.pending[f.Pane] = f
	}
	c.depthGauge.Set(float64(len(c.queue) + len(c.pending)))
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return superseded
}

// depth reports enqueued-but-undelivered frames.
func (c *Client) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) + len(c.pending)
}

// take pops the next deliverable frame: FIFO first, then the coalescing
// slots in pane order. Returns nil when the client is drained.
func (c *Client) take() *Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) > 0 {
		f := c.queue[0]
		copy(c.queue, c.queue[1:])
		c.queue[len(c.queue)-1] = nil
		c.queue = c.queue[:len(c.queue)-1]
		return f
	}
	if len(c.pending) > 0 {
		ids := make([]int, 0, len(c.pending))
		for id := range c.pending {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		id := ids[0]
		f := c.pending[id]
		if c.pendingSup[id] > 0 {
			// The Frame is shared by every subscribed client; mark the
			// coalesced delivery on a per-client copy (Body is read-only and
			// safely aliased).
			cp := *f
			cp.Coalesced = true
			f = &cp
			c.coalesced++
			if o := c.b.o; o != nil {
				o.StreamFramesCoalesced.Inc()
			}
		}
		delete(c.pending, id)
		delete(c.pendingSup, id)
		return f
	}
	return nil
}

// Next blocks until a frame is deliverable, the context ends, or the
// client is unsubscribed. ok=false means the stream is over for this
// client. Delivery accounting (sent counter, send-lag and queue-depth
// gauges) happens here, at the moment the frame is handed to the writer.
func (c *Client) Next(ctx context.Context) (*Frame, bool) {
	for {
		if f := c.take(); f != nil {
			lag := time.Since(f.published)
			c.mu.Lock()
			c.sent++
			c.deliveredSeq = f.Seq
			c.lastLagMS = float64(lag.Nanoseconds()) / 1e6
			depth := len(c.queue) + len(c.pending)
			c.mu.Unlock()
			c.lagGauge.Set(float64(lag.Nanoseconds()) / 1e6)
			c.depthGauge.Set(float64(depth))
			if o := c.b.o; o != nil {
				o.StreamFramesSent.Inc()
				o.ObservePushLag(lag)
			}
			return f, true
		}
		select {
		case <-ctx.Done():
			return nil, false
		case <-c.done:
			// Drain what was enqueued before the close so a clean
			// Close/Unsubscribe doesn't eat delivered history; the next
			// iteration returns nil, false once empty.
			if f := c.take(); f != nil {
				c.mu.Lock()
				c.sent++
				c.deliveredSeq = f.Seq
				c.mu.Unlock()
				if o := c.b.o; o != nil {
					o.StreamFramesSent.Inc()
				}
				return f, true
			}
			return nil, false
		case <-c.notify:
		}
	}
}

func (c *Client) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
}

// --- health -------------------------------------------------------------------

// ClientHealth is one client's row in the /debug/stream surface.
type ClientHealth struct {
	ID              int     `json:"id"`
	Slot            int     `json:"slot"`
	Format          string  `json:"format"`
	Subs            []int   `json:"subs,omitempty"` // nil = all panes
	ConnectedUnix   int64   `json:"connected_unix_ms"`
	FramesSent      uint64  `json:"frames_sent"`
	FramesDropped   uint64  `json:"frames_dropped"`
	FramesCoalesced uint64  `json:"frames_coalesced"`
	QueueDepth      int     `json:"queue_depth"`
	LastSeq         uint64  `json:"last_seq"`
	DeliveredSeq    uint64  `json:"delivered_seq"`
	LagFrames       uint64  `json:"lag_frames"` // enqueued-but-undelivered distance
	LastLagMS       float64 `json:"last_lag_ms"`
}

// Health is the broker-wide snapshot behind /debug/stream and the vchat
// stream diagnosis.
type Health struct {
	Clients  []ClientHealth `json:"clients"`
	Seq      uint64         `json:"seq"`
	QueueCap int            `json:"queue_cap"`
}

// Health snapshots every connected client, ordered by ID.
func (b *Broker) Health() *Health {
	b.mu.Lock()
	clients := make([]*Client, 0, len(b.clients))
	for _, c := range b.clients {
		clients = append(clients, c)
	}
	h := &Health{Seq: b.seq, QueueCap: b.queueCap}
	b.mu.Unlock()
	sort.Slice(clients, func(i, j int) bool { return clients[i].ID < clients[j].ID })
	for _, c := range clients {
		c.mu.Lock()
		ch := ClientHealth{
			ID: c.ID, Slot: c.Slot, Format: c.Format,
			ConnectedUnix:   c.connected.UnixMilli(),
			FramesSent:      c.sent,
			FramesDropped:   c.dropped,
			FramesCoalesced: c.coalesced,
			QueueDepth:      len(c.queue) + len(c.pending),
			LastSeq:         c.lastSeq,
			DeliveredSeq:    c.deliveredSeq,
			LastLagMS:       c.lastLagMS,
		}
		if c.lastSeq > c.deliveredSeq {
			ch.LagFrames = c.lastSeq - c.deliveredSeq
		}
		if c.Subs != nil {
			ch.Subs = make([]int, 0, len(c.Subs))
			for id := range c.Subs {
				ch.Subs = append(ch.Subs, id)
			}
			sort.Ints(ch.Subs)
		}
		c.mu.Unlock()
		h.Clients = append(h.Clients, ch)
	}
	return h
}
