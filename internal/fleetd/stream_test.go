package fleetd

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
)

// flushRecorder is a ResponseWriter that counts Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (w *flushRecorder) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// drainStream runs a subscriber's stream loop to its end on a recorder,
// with the Accept header given; the fan-out must already be closed (or
// closing) for it to return.
func drainStream(f *fanout, sub *subscriber, accept string) (*httptest.ResponseRecorder, int) {
	req := httptest.NewRequest(http.MethodGet, "/v1/tenants/"+sub.group+"/telemetry", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	f.stream(w, w, req, sub)
	return w.ResponseRecorder, w.flushes
}

// streamEvent is the i-th event of the stream tests: robustness lines
// with varied margins and the odd lifecycle event.
func streamEvent(group string, i int) fleet.Event {
	if i%10 == 9 {
		return fleet.Event{Kind: fleet.EventSessionDone, Session: i, PatientIdx: i % 7, Group: group, Step: 60, Completed: int64(i)}
	}
	return fleet.Event{Kind: fleet.EventRobustness, Session: i % 5, PatientIdx: i % 7, Group: group,
		Step: i, Robustness: 2 + float64(i)/3, Margin: 0.5 - float64(i)/7, Rule: 6, MarginRule: i % 4}
}

// wantStream is the byte stream a client must read for events, as
// EncodeJSON lines or SSE data events.
func wantStream(t *testing.T, events []fleet.Event, sse bool) string {
	t.Helper()
	var b bytes.Buffer
	for _, ev := range events {
		line, err := fleet.EncodeJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		if sse {
			b.WriteString("data: ")
		}
		b.Write(line)
		if sse {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestStreamWritesBatchWithOneFlush: N events queued before the stream
// loop first runs arrive as exactly the N EncodeJSON lines, in order,
// in both JSONL and SSE framing, with one Flush for the whole batch
// after the header flush — across several 64 KB write chunks.
func TestStreamWritesBatchWithOneFlush(t *testing.T) {
	const n = 2000 // about 300 KB: several write chunks
	for _, tc := range []struct {
		name, accept, contentType string
		sse                       bool
	}{
		{"jsonl", "", "application/x-ndjson", false},
		{"sse", "text/event-stream", "text/event-stream", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFanout()
			sub := f.subscribe("acme", n)
			events := make([]fleet.Event, n)
			for i := range events {
				events[i] = streamEvent("acme", i)
				if err := f.Emit(events[i]); err != nil {
					t.Fatal(err)
				}
			}
			f.closeAll()
			rec, flushes := drainStream(f, sub, tc.accept)
			if got := rec.Header().Get("Content-Type"); got != tc.contentType {
				t.Errorf("content type %q, want %q", got, tc.contentType)
			}
			want := wantStream(t, events, tc.sse)
			if len(want) < 2*streamChunk {
				t.Fatalf("batch of %d bytes does not span several write chunks", len(want))
			}
			if rec.Body.String() != want {
				t.Error("stream is not the N EncodeJSON lines in order")
			}
			if flushes != 2 {
				t.Errorf("%d flushes, want the header flush and one for the batch", flushes)
			}
		})
	}
}

// TestStreamDrainWritesQueuedEvents: events queued while the stream
// loop is running, up to closeAll, are all written before the stream
// ends.
func TestStreamDrainWritesQueuedEvents(t *testing.T) {
	const n = 500
	f := newFanout()
	sub := f.subscribe("acme", n)
	var rec *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		rec, _ = drainStream(f, sub, "")
		close(done)
	}()
	events := make([]fleet.Event, n)
	for i := range events {
		events[i] = streamEvent("acme", i)
		if err := f.Emit(events[i]); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			runtime.Gosched() // let the loop take partial batches
		}
	}
	f.closeAll()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after closeAll")
	}
	if rec.Body.String() != wantStream(t, events, false) {
		t.Error("drain lost or reordered events queued before closeAll")
	}
	if d := f.droppedTotal(); d != 0 {
		t.Errorf("%d drops under the limit", d)
	}
}

// TestStreamSkipsNonFiniteEvents: an event with a NaN or ±Inf margin
// has no JSON form. The fan-out still accepts it (so the fleet never
// detaches the sink), and the tenant's handler skips it, counts it as
// that tenant's drop and keeps streaming; another tenant is untouched.
func TestStreamSkipsNonFiniteEvents(t *testing.T) {
	f := newFanout()
	acme := f.subscribe("acme", 16)
	zen := f.subscribe("zen", 16)
	first, last := streamEvent("acme", 0), streamEvent("acme", 1)
	nan := streamEvent("acme", 2)
	nan.Margin = math.NaN()
	inf := streamEvent("acme", 3)
	inf.Robustness = math.Inf(1)
	zenEvents := []fleet.Event{streamEvent("zen", 4), streamEvent("zen", 5)}
	for _, ev := range []fleet.Event{first, zenEvents[0], nan, inf, zenEvents[1], last} {
		if err := f.Emit(ev); err != nil {
			t.Fatalf("Emit(%+v) = %v: a non-finite margin would detach the fan-out", ev, err)
		}
	}
	f.closeAll()
	if rec, _ := drainStream(f, acme, ""); rec.Body.String() != wantStream(t, []fleet.Event{first, last}, false) {
		t.Errorf("acme stream %q, want the two finite lines in order", rec.Body.String())
	}
	if rec, _ := drainStream(f, zen, ""); rec.Body.String() != wantStream(t, zenEvents, false) {
		t.Errorf("zen stream %q, want its own lines untouched", rec.Body.String())
	}
	if d := f.droppedFor("acme"); d != 2 {
		t.Errorf("acme dropped %d, want the 2 non-finite events", d)
	}
	if d := f.droppedFor("zen"); d != 0 {
		t.Errorf("zen dropped %d, want 0", d)
	}
}

// TestFanoutEmitNoAlloc: once both of a subscriber's slices have grown,
// Emit into a drained queue allocates nothing.
func TestFanoutEmitNoAlloc(t *testing.T) {
	f := newFanout()
	sub := f.subscribe("acme", 16)
	f.subscribe("zen", 16) // another tenant's subscriber is skipped
	ev := streamEvent("acme", 0)
	var spare []fleet.Event
	drain := func() {
		spare, _ = sub.take(spare)
		select {
		case <-sub.wake:
		default:
		}
	}
	for i := 0; i < 2; i++ {
		f.Emit(ev)
		drain()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.Emit(ev); err != nil {
			t.Fatal(err)
		}
		drain()
	})
	if allocs != 0 {
		t.Fatalf("Emit into a drained queue: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkFanoutEmit times one Emit into one subscriber whose queue a
// drainer swaps out every epoch-sized batch, as its handler would.
func BenchmarkFanoutEmit(b *testing.B) {
	f := newFanout()
	sub := f.subscribe("base", 1<<15)
	ev := streamEvent("base", 0)
	var spare []fleet.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Emit(ev)
		if i%256 == 255 {
			spare, _ = sub.take(spare)
		}
	}
}
