package fleetd

import (
	"math"
	"net/http"
	"strings"
	"sync"

	"repro/internal/fleet"
)

// defaultStreamBuffer is the per-subscriber event bound when
// Config.StreamBuffer is zero.
const defaultStreamBuffer = 256

// streamChunk is the write size of the telemetry handler: a batch is
// encoded into one reused buffer and written whenever it passes this
// many bytes, so the buffer stays near 64 KB however long the backlog
// (and small for a client that only ever takes a few events).
const streamChunk = 64 << 10

// subscriber is one telemetry stream client of a single tenant group:
// a mutex-guarded queue of raw events and a one-slot doorbell. The
// fleet goroutine appends (Emit); the stream's handler swaps the whole
// backlog out for its spare slice (take) and encodes it off the
// fleet's epoch barrier. The queue holds at most limit events and
// grows only as far as the backlog does.
type subscriber struct {
	group string
	limit int
	wake  chan struct{} // one slot: rung when the queue turns non-empty, and on close

	mu     sync.Mutex
	queue  []fleet.Event
	closed bool
}

// take swaps the backlog out for spare (emptied) and reports whether
// the fan-out has closed the stream; events queued before the close
// are all in the returned backlog.
func (sub *subscriber) take(spare []fleet.Event) (batch []fleet.Event, closed bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	batch, sub.queue = sub.queue, spare[:0]
	return batch, sub.closed
}

// ring wakes the subscriber's handler; a ring already pending covers
// this one.
func (sub *subscriber) ring() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// fanout is the telemetry fan-out sink. Emit, on the fleet's delivery
// goroutine, only copies each event into the queue of every subscriber
// of the event's tenant; encoding and socket writes happen on the
// subscribers' handlers (stream). Emit NEVER blocks — a subscriber
// whose queue already holds its limit loses the event and the drop is
// counted — so a stalled HTTP client cannot stall the fleet's epoch
// merges or any other tenant's stream.
type fanout struct {
	mu      sync.Mutex
	subs    []*subscriber
	closed  bool
	drops   map[string]int64 // per-tenant drop totals
	dropped int64            // fleet-wide drop total
}

func newFanout() *fanout {
	return &fanout{drops: make(map[string]int64)}
}

// Emit implements fleet.Sink. It runs on the fleet's delivery
// goroutine inside the epoch barrier, so it only queues: the bounded
// append below is the backpressure contract. It never fails — an event
// the handler cannot encode is dropped and counted there.
//
//fleetvet:noalloc
func (f *fanout) Emit(ev fleet.Event) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	for _, sub := range f.subs {
		if sub.group != ev.Group {
			continue
		}
		sub.mu.Lock()
		queued := len(sub.queue)
		if queued < sub.limit {
			sub.queue = append(sub.queue, ev) //fleetvet:alloc grows only to the backlog (at most limit); the handler swaps back a spare with that capacity
		}
		sub.mu.Unlock()
		switch {
		case queued >= sub.limit:
			f.drops[sub.group]++
			f.dropped++
		case queued == 0:
			sub.ring()
		}
	}
	return nil
}

// Flush implements fleet.Sink; buffering lives in the subscribers.
func (f *fanout) Flush() error { return nil }

// dropEncode counts an event a tenant's handler could not encode (a
// non-finite robustness or margin) as a drop of that tenant.
func (f *fanout) dropEncode(group string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drops[group]++
	f.dropped++
}

// subscribe registers a stream for one tenant group holding at most
// limit queued events; nil after close.
func (f *fanout) subscribe(group string, limit int) *subscriber {
	if limit <= 0 {
		limit = defaultStreamBuffer
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	sub := &subscriber{group: group, limit: limit, wake: make(chan struct{}, 1)}
	f.subs = append(f.subs, sub)
	return sub
}

// unsubscribe detaches a stream; Emit stops queueing for it.
func (f *fanout) unsubscribe(sub *subscriber) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.subs {
		if s == sub {
			f.subs[i] = f.subs[len(f.subs)-1]
			f.subs = f.subs[:len(f.subs)-1]
			return
		}
	}
}

// closeAll ends every stream (server drain): each subscriber is marked
// closed and woken, its handler writes what is still queued and
// finishes, and later Emits are no-ops.
func (f *fanout) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, sub := range f.subs {
		sub.mu.Lock()
		sub.closed = true
		sub.mu.Unlock()
		sub.ring()
	}
	f.subs = nil
}

// stream answers a telemetry request on an already subscribed stream:
// it sends the headers — JSONL, or SSE when the request accepts
// text/event-stream — and flushes them, then writes the subscriber's
// events until the request ends, a write fails, or the fan-out closes
// the subscriber (after writing every event queued before the close).
// Each wakeup takes the whole backlog and encodes it with
// fleet.AppendJSON into one reused buffer, written in chunks of about
// streamChunk bytes and flushed once per batch. An event with no JSON
// form (a non-finite robustness or margin) is skipped and counted as a
// drop of the subscriber's tenant; the stream goes on.
func (f *fanout) stream(w http.ResponseWriter, flusher http.Flusher, r *http.Request, sub *subscriber) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var batch []fleet.Event
	var buf []byte
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.wake:
		}
		var closed bool
		batch, closed = sub.take(batch)
		for i := range batch {
			var err error
			if buf, err = appendFrame(buf, &batch[i], sse); err != nil {
				f.dropEncode(sub.group)
				continue
			}
			if len(buf) >= streamChunk {
				if _, err := w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return
			}
			buf = buf[:0]
		}
		if len(batch) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
	}
}

// appendFrame appends one event's stream frame to dst: its JSON line,
// wrapped as an SSE data event (data: prefix, blank-line terminator)
// with sse. On error dst comes back unchanged.
func appendFrame(dst []byte, ev *fleet.Event, sse bool) ([]byte, error) {
	n := len(dst)
	if sse {
		dst = append(dst, "data: "...)
	}
	dst, err := fleet.AppendJSON(dst, *ev)
	if err != nil {
		return dst[:n], err
	}
	dst = append(dst, '\n')
	if sse {
		dst = append(dst, '\n')
	}
	return dst, nil
}

// droppedFor returns a tenant's lifetime stream-drop total.
func (f *fanout) droppedFor(group string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drops[group]
}

// droppedTotal returns the fleet-wide stream-drop total.
func (f *fanout) droppedTotal() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// alertTable routes robustness margins to one margin-floor-armed
// HistSink per tenant, backing GET /v1/tenants/{id}/alerts. Either
// knob (or both) may be armed: floor is a fixed margin threshold and
// pct is an adaptive percentile floor; NaN disarms a knob.
type alertTable struct {
	mu    sync.Mutex
	floor float64
	pct   float64
	hists map[string]*fleet.HistSink
}

// alertHist* fix the per-tenant histogram shape: the margin range
// covers the SCS rules' practical span.
const (
	alertHistLo   = -10
	alertHistHi   = 10
	alertHistBins = 40
)

func newAlertTable(floor, pct float64) *alertTable {
	return &alertTable{floor: floor, pct: pct, hists: make(map[string]*fleet.HistSink)}
}

// Emit implements fleet.Sink: tenant-tagged robustness events land in
// that tenant's histogram (created on first sight).
func (t *alertTable) Emit(ev fleet.Event) error {
	if ev.Kind != fleet.EventRobustness || ev.Group == "" {
		return nil
	}
	t.mu.Lock()
	h, ok := t.hists[ev.Group]
	if !ok {
		var err error
		if h, err = fleet.NewHistSink(alertHistLo, alertHistHi, alertHistBins); err != nil {
			t.mu.Unlock()
			return err
		}
		if !math.IsNaN(t.floor) {
			h.SetAlertFloor(t.floor, nil)
		}
		if !math.IsNaN(t.pct) {
			if err := h.SetAlertPercentile(t.pct, 0, nil); err != nil {
				t.mu.Unlock()
				return err
			}
		}
		t.hists[ev.Group] = h
	}
	t.mu.Unlock()
	return h.Emit(ev)
}

// Flush implements fleet.Sink.
func (t *alertTable) Flush() error { return nil }

// forTenant returns a tenant's histogram sink, nil before its first
// robustness event.
func (t *alertTable) forTenant(group string) *fleet.HistSink {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hists[group]
}
