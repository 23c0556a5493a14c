package stream

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/obs"
)

func frame(pane, version int, body string) *Frame {
	return &Frame{
		Pane: pane, Version: version, Epoch: version, Format: "json",
		ETag: fmt.Sprintf(`W/"p%d.v%d.e%d.json"`, pane, version, version),
		Body: []byte(body),
	}
}

// drain pulls frames until the client has nothing buffered, with a short
// deadline so a broken notify path fails the test instead of hanging it.
func drain(t *testing.T, c *Client, n int) []*Frame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []*Frame
	for len(out) < n {
		f, ok := c.Next(ctx)
		if !ok {
			t.Fatalf("stream ended after %d frames, want %d", len(out), n)
		}
		out = append(out, f)
	}
	return out
}

func TestFastClientReceivesEveryFrameInOrder(t *testing.T) {
	b := NewBroker(obs.NewObserver(), 4)
	defer b.Close()
	c := b.Subscribe("json", nil)

	// Publish in small batches, draining between them like a fast consumer.
	var want []uint64
	for round := uint64(1); round <= 5; round++ {
		frames := []*Frame{frame(1, int(round), "a"), frame(2, int(round), "b")}
		b.Publish(round, frames, nil)
		for _, f := range frames {
			want = append(want, f.Seq)
		}
		for _, f := range drain(t, c, 2) {
			if f.Coalesced {
				t.Fatalf("fast client saw coalesced frame seq=%d", f.Seq)
			}
		}
	}
	h := b.Health()
	if h.Clients[0].FramesSent != 10 || h.Clients[0].FramesDropped != 0 {
		t.Fatalf("fast client health = %+v, want 10 sent / 0 dropped", h.Clients[0])
	}
	if want[len(want)-1] != h.Seq {
		t.Fatalf("broker seq %d, want %d", h.Seq, want[len(want)-1])
	}
}

func TestSlowClientCoalescesToLatest(t *testing.T) {
	o := obs.NewObserver()
	b := NewBroker(o, 2)
	defer b.Close()
	c := b.Subscribe("json", nil)

	// 10 rounds × 3 panes without draining: queue (cap 2) fills, the rest
	// land in per-pane latest-wins slots.
	const rounds = 10
	for r := 1; r <= rounds; r++ {
		b.Publish(uint64(r), []*Frame{
			frame(1, r, fmt.Sprintf("p1v%d", r)),
			frame(2, r, fmt.Sprintf("p2v%d", r)),
			frame(3, r, fmt.Sprintf("p3v%d", r)),
		}, nil)
	}
	if d := c.depth(); d > 2+3 {
		t.Fatalf("buffer depth %d exceeds queueCap+panes=%d", d, 2+3)
	}

	// The client converges: 2 FIFO frames, then exactly one latest frame
	// per pane, marked coalesced.
	frames := drain(t, c, 5)
	if c.depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", c.depth())
	}
	latest := map[int]*Frame{}
	for _, f := range frames[2:] {
		latest[f.Pane] = f
	}
	for pane := 1; pane <= 3; pane++ {
		f := latest[pane]
		if f == nil {
			t.Fatalf("no converged frame for pane %d", pane)
		}
		if f.Version != rounds {
			t.Fatalf("pane %d converged at version %d, want %d", pane, f.Version, rounds)
		}
		if !f.Coalesced {
			t.Fatalf("pane %d latest-wins frame not marked coalesced", pane)
		}
		if got, want := string(f.Body), fmt.Sprintf("p%dv%d", pane, rounds); got != want {
			t.Fatalf("pane %d body %q, want %q", pane, got, want)
		}
	}
	h := b.Health().Clients[0]
	// 30 published; 2 through the FIFO; 28 went to slots, of which 3 were
	// delivered (one per pane) and 25 superseded.
	if h.FramesDropped != 25 || h.FramesCoalesced != 3 {
		t.Fatalf("dropped=%d coalesced=%d, want 25/3", h.FramesDropped, h.FramesCoalesced)
	}
	if o.StreamFramesDropped.Value() != 25 || o.StreamFramesCoalesced.Value() != 3 {
		t.Fatalf("observer counters dropped=%d coalesced=%d, want 25/3",
			o.StreamFramesDropped.Value(), o.StreamFramesCoalesced.Value())
	}
}

// TestOneSlowManyFastBackpressure runs an explicit schedule, with no clock
// in it: after each publish, every fast consumer confirms it received that
// round's frames before the next publish, so none of them ever backs up;
// the slow consumer is held behind a gate until every round is published,
// so its queue overflows into latest-wins coalescing, and then drains.
func TestOneSlowManyFastBackpressure(t *testing.T) {
	b := NewBroker(obs.NewObserver(), 4)
	defer b.Close()

	const fastN = 8
	const rounds, panes = 40, 3
	fast := make([]*Client, fastN)
	for i := range fast {
		fast[i] = b.Subscribe("json", nil)
	}
	slow := b.Subscribe("json", nil)

	roundDone := make(chan struct{}, fastN) // one per fast consumer per round
	gate := make(chan struct{})             // opens when every round is published
	slowDone := make(chan struct{})         // the slow consumer has converged
	// await fails the test instead of hanging it when the schedule stalls.
	await := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("schedule stalled waiting for %s", what)
		}
	}

	var wg sync.WaitGroup
	type rec struct {
		seqs  []uint64
		panes map[int]int // pane -> last version seen
	}
	fastGot := make([]rec, fastN)
	for i := range fast {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			r := rec{panes: map[int]int{}}
			for {
				f, ok := fast[i].Next(ctx)
				if !ok {
					break
				}
				r.seqs = append(r.seqs, f.Seq)
				r.panes[f.Pane] = f.Version
				if len(r.seqs)%panes == 0 {
					roundDone <- struct{}{}
				}
			}
			fastGot[i] = r
		}(i)
	}
	slowPanes := map[int]int{}
	var slowCoalesced int
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-gate
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		converged := false
		for {
			f, ok := slow.Next(ctx)
			if !ok {
				return
			}
			if f.Coalesced {
				slowCoalesced++
			}
			slowPanes[f.Pane] = f.Version
			if !converged {
				converged = true
				for p := 1; p <= panes; p++ {
					converged = converged && slowPanes[p] == rounds
				}
				if converged {
					close(slowDone)
				}
			}
		}
	}()

	for r := 1; r <= rounds; r++ {
		fs := make([]*Frame, 0, panes)
		for p := 1; p <= panes; p++ {
			fs = append(fs, frame(p, r, fmt.Sprintf("p%dv%d", p, r)))
		}
		b.Publish(uint64(r), fs, nil)
		for range fast {
			await(roundDone, fmt.Sprintf("the fast consumers to receive round %d", r))
		}
	}
	close(gate)
	await(slowDone, "the slow consumer to drain")
	b.Close()
	wg.Wait()

	for i, r := range fastGot {
		if len(r.seqs) != rounds*panes {
			t.Fatalf("fast[%d] got %d frames, want %d (every delta)", i, len(r.seqs), rounds*panes)
		}
		for j := 1; j < len(r.seqs); j++ {
			if r.seqs[j] <= r.seqs[j-1] {
				t.Fatalf("fast[%d] out of order at %d: %d after %d", i, j, r.seqs[j], r.seqs[j-1])
			}
		}
		for p := 1; p <= panes; p++ {
			if r.panes[p] != rounds {
				t.Fatalf("fast[%d] pane %d ended at version %d, want %d", i, p, r.panes[p], rounds)
			}
		}
	}
	// The slow client converged on the final version of every pane and
	// demonstrably coalesced along the way.
	for p := 1; p <= panes; p++ {
		if slowPanes[p] != rounds {
			t.Fatalf("slow pane %d converged at %d, want %d", p, slowPanes[p], rounds)
		}
	}
	if slowCoalesced == 0 {
		t.Fatal("slow client never coalesced despite backlog")
	}
}

func TestSubscriptionAndFormatFilter(t *testing.T) {
	b := NewBroker(nil, 0)
	defer b.Close()
	onlyPane2 := b.Subscribe("json", []int{2})
	textClient := b.Subscribe("text", nil)

	f1 := frame(1, 1, "p1")
	f2 := frame(2, 1, "p2")
	ft := &Frame{Pane: 1, Version: 1, Format: "text", Body: []byte("t1")}
	b.Publish(1, []*Frame{f1, f2, ft}, nil)

	got := drain(t, onlyPane2, 1)
	if got[0].Pane != 2 || got[0].Format != "json" {
		t.Fatalf("subscription filter delivered pane=%d format=%s", got[0].Pane, got[0].Format)
	}
	if d := onlyPane2.depth(); d != 0 {
		t.Fatalf("pane-filtered client still buffers %d frames", d)
	}
	gt := drain(t, textClient, 1)
	if gt[0].Format != "text" {
		t.Fatalf("format filter delivered %s", gt[0].Format)
	}
	if d := textClient.depth(); d != 0 {
		t.Fatalf("format-filtered client still buffers %d frames", d)
	}
}

func TestSnapshotToThenDeltasStayOrdered(t *testing.T) {
	b := NewBroker(nil, 8)
	defer b.Close()
	c := b.Subscribe("json", nil)
	b.SnapshotTo(c, []*Frame{frame(1, 3, "snap1"), frame(2, 3, "snap2")})
	b.Publish(4, []*Frame{frame(1, 4, "delta1")}, nil)

	frames := drain(t, c, 3)
	if !frames[0].Snapshot || !frames[1].Snapshot || frames[2].Snapshot {
		t.Fatalf("snapshot flags = %v %v %v, want true true false",
			frames[0].Snapshot, frames[1].Snapshot, frames[2].Snapshot)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Seq <= frames[i-1].Seq {
			t.Fatalf("seq regressed across snapshot/delta boundary: %d then %d",
				frames[i-1].Seq, frames[i].Seq)
		}
	}
}

func TestUnsubscribeDropsGaugesAndRecyclesSlots(t *testing.T) {
	o := obs.NewObserver()
	b := NewBroker(o, 0)
	defer b.Close()

	// Churn: connect/disconnect many clients; bounded slot reuse means the
	// exposition never accumulates per-client series for departed clients.
	for i := 0; i < 50; i++ {
		c := b.Subscribe("json", nil)
		if c.Slot != 0 {
			t.Fatalf("iteration %d: slot %d, want recycled slot 0", i, c.Slot)
		}
		b.Unsubscribe(c)
	}
	var sb strings.Builder
	o.Registry.WritePrometheus(&sb)
	exp := sb.String()
	if strings.Contains(exp, "vl_stream_client_lag_ms") {
		t.Fatal("per-client lag series survived disconnect")
	}
	if strings.Contains(exp, "vl_stream_client_queue_depth") {
		t.Fatal("per-client queue-depth series survived disconnect")
	}
	if got := o.StreamConnects.Value(); got != 50 {
		t.Fatalf("connects = %d, want 50", got)
	}
	if got := o.StreamDisconnects.Value(); got != 50 {
		t.Fatalf("disconnects = %d, want 50", got)
	}
	if got := o.StreamClients.Value(); got != 0 {
		t.Fatalf("clients gauge = %v, want 0", got)
	}

	// Two concurrent clients occupy distinct slots; both series present.
	c1, c2 := b.Subscribe("json", nil), b.Subscribe("json", nil)
	if c1.Slot == c2.Slot {
		t.Fatalf("concurrent clients share slot %d", c1.Slot)
	}
	sb.Reset()
	o.Registry.WritePrometheus(&sb)
	for _, want := range []string{
		`vl_stream_client_lag_ms{client="s0"}`,
		`vl_stream_client_lag_ms{client="s1"}`,
		`vl_stream_client_queue_depth{client="s0"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}
	b.Unsubscribe(c1)
	b.Unsubscribe(c2)
}

func TestDisconnectMidPushLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBroker(obs.NewObserver(), 2)

	var wg sync.WaitGroup
	clients := make([]*Client, 16)
	for i := range clients {
		clients[i] = b.Subscribe("json", nil)
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for {
				if _, ok := c.Next(ctx); !ok {
					return
				}
			}
		}(clients[i])
	}

	// Publish concurrently with mid-stream disconnects.
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for r := 1; r <= 50; r++ {
			b.Publish(uint64(r), []*Frame{frame(1, r, "x"), frame(2, r, "y")}, nil)
		}
	}()
	for i := range clients {
		if i%2 == 0 {
			b.Unsubscribe(clients[i])
		}
	}
	pub.Wait()
	b.Close()
	wg.Wait()

	if n := b.ClientCount(); n != 0 {
		t.Fatalf("%d clients remain after close", n)
	}
	// The broker spawns no goroutines; only our consumer goroutines existed
	// and wg.Wait proved they exited. Allow slack for runtime background.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestNextDrainsBufferedFramesAfterClose(t *testing.T) {
	b := NewBroker(nil, 8)
	c := b.Subscribe("json", nil)
	b.Publish(1, []*Frame{frame(1, 1, "x"), frame(2, 1, "y")}, nil)
	b.Unsubscribe(c)

	ctx := context.Background()
	if f, ok := c.Next(ctx); !ok || f.Pane != 1 {
		t.Fatalf("first post-close Next = %v %v, want pane 1", f, ok)
	}
	if f, ok := c.Next(ctx); !ok || f.Pane != 2 {
		t.Fatalf("second post-close Next = %v %v, want pane 2", f, ok)
	}
	if _, ok := c.Next(ctx); ok {
		t.Fatal("Next reported a frame after drain on a closed client")
	}
}

func TestPublishRecordsFanoutSpans(t *testing.T) {
	b := NewBroker(nil, 8)
	defer b.Close()
	b.Subscribe("json", nil)
	b.Subscribe("json", []int{2})

	tr := obs.NewTracer("stream.fanout")
	b.Publish(7, []*Frame{frame(1, 1, "x"), frame(2, 1, "y")}, tr.Root())
	tr.Finish()
	exp := tr.Export()

	var clientSpans int
	exp.Walk(func(s *obs.SpanExport) {
		if s.Name == "fanout.client" {
			clientSpans++
			if s.Tags["enqueued"] == "" || s.Tags["format"] != "json" {
				t.Fatalf("fanout.client span missing tags: %+v", s.Tags)
			}
		}
	})
	if clientSpans != 2 {
		t.Fatalf("fanout.client spans = %d, want 2 (one per client)", clientSpans)
	}
}

func TestHealthSnapshot(t *testing.T) {
	b := NewBroker(nil, 8)
	defer b.Close()
	c1 := b.Subscribe("json", nil)
	c2 := b.Subscribe("text", []int{1, 3})
	_ = c1
	b.Publish(1, []*Frame{frame(1, 1, "x")}, nil)
	drain(t, c1, 1)

	h := b.Health()
	if len(h.Clients) != 2 {
		t.Fatalf("health clients = %d, want 2", len(h.Clients))
	}
	if h.Clients[0].ID != c1.ID || h.Clients[1].ID != c2.ID {
		t.Fatalf("health order %d,%d want %d,%d", h.Clients[0].ID, h.Clients[1].ID, c1.ID, c2.ID)
	}
	if h.Clients[0].FramesSent != 1 || h.Clients[0].QueueDepth != 0 {
		t.Fatalf("c1 health %+v, want 1 sent / 0 depth", h.Clients[0])
	}
	if got := h.Clients[1].Subs; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("c2 subs %v, want [1 3]", got)
	}
	if h.QueueCap != 8 {
		t.Fatalf("queue cap %d, want 8", h.QueueCap)
	}
}

func TestFormatsInUse(t *testing.T) {
	b := NewBroker(nil, 0)
	defer b.Close()
	b.Subscribe("json", nil)
	b.Subscribe("json", nil)
	b.Subscribe("dot", nil)
	got := b.FormatsInUse()
	if got["json"] != 2 || got["dot"] != 1 || len(got) != 2 {
		t.Fatalf("formats in use = %v", got)
	}
}

// TestCoalescedDeliveryDoesNotMutateSharedFrame pins the invariant the
// race detector caught in the bench harness: a published Frame is shared by
// every subscribed client, so marking a coalesced delivery must happen on a
// per-client copy — one slow client's coalescing must never leak a
// Coalesced flag (or a data race) into another client's delivery of the
// same frame.
func TestCoalescedDeliveryDoesNotMutateSharedFrame(t *testing.T) {
	b := NewBroker(nil, 1)
	defer b.Close()
	slow := b.Subscribe("json", nil)
	fast := b.Subscribe("json", nil)

	f1 := frame(1, 1, "a")
	f2 := frame(1, 2, "b")
	f3 := frame(1, 3, "c")
	b.Publish(1, []*Frame{f1}, nil)
	// fast drains immediately; slow sits, so f2 lands in its coalescing
	// slot and f3 supersedes it there.
	drain(t, fast, 1)
	b.Publish(2, []*Frame{f2}, nil)
	b.Publish(3, []*Frame{f3}, nil)
	drain(t, fast, 2)

	got := drain(t, slow, 2)
	last := got[len(got)-1]
	if last.Version != 3 || !last.Coalesced {
		t.Fatalf("slow client's last delivery = v%d coalesced=%v, want v3 coalesced", last.Version, last.Coalesced)
	}
	// The shared frame object itself must be untouched.
	if f3.Coalesced {
		t.Fatal("published Frame mutated by a client's coalesced delivery")
	}
}
