package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Sink consumes the fleet's event stream — the engine's only event
// output — so hazard telemetry survives the run. Events reach each
// registered sink in canonical order at epoch barriers and at run end
// (shard_sink.go), while every worker is quiesced, so Emit
// implementations never race with themselves
// (reading a sink's accumulated state concurrently with a running
// fleet is the caller's own synchronization problem; the shipped sinks
// lock internally).
//
// Backpressure and cancellation: delivery runs inside the barrier, so
// a slow sink slows the fleet rather than dropping events while the
// run is live. Once the context is cancelled (the normal shutdown of a
// continuous fleet) the open — un-barriered — epoch is skipped, so
// only epochs closed before shutdown are persisted and a durable sink
// may miss the final instants before shutdown (see fleet/doc.go). A
// sink whose Emit returns an error is detached for the rest of the run
// and the first error per sink is reported by Run after the simulation
// completes; telemetry failure does not abort a serving fleet. Flush
// is called once for every sink (even detached ones) when the run
// ends.
type Sink interface {
	Emit(Event) error
	Flush() error
}

// EncodeJSON renders one event as its JSONL wire line — the exact bytes
// a LogSink would write, trailing newline included — so stream fan-outs
// (fleetd's per-tenant telemetry) stay byte-identical to a log file of
// the same events. It allocates the line; hot paths append into a
// reused buffer with AppendJSON instead.
func EncodeJSON(ev Event) ([]byte, error) {
	b, err := AppendJSON(make([]byte, 0, 192), ev)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// AppendJSON appends the JSON object of one event — no trailing
// newline — to dst and returns the extended buffer. The bytes are
// exactly what encoding/json's Marshal writes for the wire struct: keys
// in the order kind, session, patient, group, replica, step, hazard,
// completed, robustness, margin, rule, margin_rule, with every key
// after patient left out at its zero value (the hazard at
// trace.HazardNone) and the four robustness fields written only on
// EventRobustness. Floats use Marshal's format: shortest 'f' form,
// switching to 'e' below 1e-6 and from 1e21 up, with a one-digit
// negative exponent unpadded (e-9, not e-09). Strings outside plain
// printable ASCII, or holding one of " \ < > &, are escaped by Marshal
// itself. A non-finite Robustness or Margin has no JSON form: like
// Marshal, AppendJSON returns an error, and dst comes back unchanged.
// Appending into a buffer with room allocates nothing.
func AppendJSON(dst []byte, ev Event) ([]byte, error) {
	rob := ev.Kind == EventRobustness
	if rob {
		if err := checkFinite("robustness", ev.Robustness); err != nil {
			return dst, err
		}
		if err := checkFinite("margin", ev.Margin); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, ev.Kind.String())
	dst = append(dst, `,"session":`...)
	dst = strconv.AppendInt(dst, int64(ev.Session), 10)
	dst = append(dst, `,"patient":`...)
	dst = strconv.AppendInt(dst, int64(ev.PatientIdx), 10)
	if ev.Group != "" {
		dst = append(dst, `,"group":`...)
		dst = appendJSONString(dst, ev.Group)
	}
	dst = appendJSONInt(dst, `,"replica":`, int64(ev.Replica))
	dst = appendJSONInt(dst, `,"step":`, int64(ev.Step))
	if ev.Hazard != trace.HazardNone {
		dst = append(dst, `,"hazard":`...)
		dst = appendJSONString(dst, ev.Hazard.String())
	}
	dst = appendJSONInt(dst, `,"completed":`, ev.Completed)
	if rob {
		dst = appendJSONFloat(dst, `,"robustness":`, ev.Robustness)
		dst = appendJSONFloat(dst, `,"margin":`, ev.Margin)
		dst = appendJSONInt(dst, `,"rule":`, int64(ev.Rule))
		dst = appendJSONInt(dst, `,"margin_rule":`, int64(ev.MarginRule))
	}
	return append(dst, '}'), nil
}

// checkFinite rejects the float values JSON cannot carry.
func checkFinite(field string, f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("fleet: event %s %v has no JSON form", field, f)
	}
	return nil
}

// appendJSONInt appends an omitempty integer field: key and value, or
// nothing at zero.
func appendJSONInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONFloat appends an omitempty finite float field the way
// encoding/json formats float64 (ES6 number-to-string): nothing at ±0,
// 'e' form outside [1e-6, 1e21), and a padded e-0N exponent cut to e-N.
func appendJSONFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	dst = append(dst, key...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string. Plain printable ASCII
// without " \ < > & needs no escaping and is copied as is; anything else
// is escaped by json.Marshal itself, so control bytes, invalid UTF-8,
// U+2028/U+2029 and the HTML-sensitive characters come out exactly as
// Marshal writes them.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// RotationPolicy bounds a file-backed log sink so continuous serving
// never grows one JSONL file forever. Rotation renames the active file
// to <path>.<N> (N strictly increasing across the sink's lifetime,
// resuming past the highest existing suffix on reopen) and starts a
// fresh file at <path>; records are never split across a rotation and
// none are dropped — every emitted event lands in exactly one of the
// retained files until retention deletes that whole file.
type RotationPolicy struct {
	// MaxBytes rotates once the active file reaches this size
	// (checked before each write, so files may exceed it by at most one
	// record). Zero disables the size trigger.
	MaxBytes int64
	// MaxAge rotates once the active file has been open this long.
	// Zero disables the age trigger.
	MaxAge time.Duration
	// Keep is the retention bound: after each rotation only the Keep
	// newest rotated files survive, older ones are deleted. Keep <= 0
	// retains every rotated file.
	Keep int
}

// enabled reports whether any rotation trigger is configured.
func (p RotationPolicy) enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// LogSink appends every event as one JSON line to a writer — the
// durable, replayable form of the telemetry stream (dashboards and
// alerting tail it). Writes are buffered; Flush drains the buffer.
// File-backed sinks (NewRotatingLogSink) additionally rotate and retire
// files per their RotationPolicy.
type LogSink struct {
	mu      sync.Mutex
	w       *bufio.Writer
	line    []byte // reused AppendJSON buffer
	written int64

	closed bool

	// File-backed rotation state; zero-valued for plain writer sinks.
	path     string
	pol      RotationPolicy
	f        *os.File
	size     int64
	openedAt time.Time
	nextIdx  int
	rotated  int64
	now      func() time.Time // injectable clock for the age trigger
}

// NewLogSink wraps a writer (a file, a pipe, a network conn) in a
// JSONL sink. The caller owns closing the underlying writer after Run
// returns.
func NewLogSink(w io.Writer) *LogSink {
	return &LogSink{w: bufio.NewWriter(w)}
}

// NewRotatingLogSink opens (or resumes appending to) a JSONL file that
// the sink owns, rotating it per the policy. Rotated files continue the
// numbering of any <path>.<N> files already on disk, so restarts of a
// continuous fleet never overwrite earlier history. Close the sink
// after Run returns.
func NewRotatingLogSink(path string, pol RotationPolicy) (*LogSink, error) {
	if pol.MaxBytes < 0 || pol.MaxAge < 0 {
		return nil, fmt.Errorf("fleet: negative rotation bounds %+v", pol)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: log sink: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: log sink: %w", err)
	}
	s := &LogSink{
		w:    bufio.NewWriter(f),
		path: path, pol: pol, f: f,
		//fleetvet:nondeterministic rotation clock only paces file rollover, never record content; tests inject a fake
		size: st.Size(), now: time.Now,
	}
	s.openedAt = s.now()
	if st.Size() > 0 {
		// Resuming a non-empty file: age it from its last write, not from
		// this open, so an age-only policy still fires across periodic
		// restarts instead of resetting its clock every reopen.
		s.openedAt = st.ModTime()
	}
	if idxs := rotatedIndices(path); len(idxs) > 0 {
		s.nextIdx = idxs[len(idxs)-1] + 1
	} else {
		s.nextIdx = 1
	}
	return s, nil
}

// rotationDue reports whether the active file must rotate before the
// next record.
func (s *LogSink) rotationDue() bool {
	if !s.pol.enabled() || s.size == 0 {
		return false // never rotate an empty file
	}
	if s.pol.MaxBytes > 0 && s.size >= s.pol.MaxBytes {
		return true
	}
	return s.pol.MaxAge > 0 && s.now().Sub(s.openedAt) >= s.pol.MaxAge
}

// rotate retires the active file to <path>.<nextIdx>, prunes per the
// retention bound, and starts a fresh file. Caller holds the lock.
func (s *LogSink) rotate() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(s.path, fmt.Sprintf("%s.%d", s.path, s.nextIdx)); err != nil {
		return err
	}
	s.nextIdx++
	s.rotated++
	if s.pol.Keep > 0 {
		idxs := rotatedIndices(s.path)
		for len(idxs) > s.pol.Keep {
			// A file already gone (an external shipper consumed it) is the
			// desired end state, not a reason to detach the sink.
			if err := os.Remove(fmt.Sprintf("%s.%d", s.path, idxs[0])); err != nil && !os.IsNotExist(err) {
				return err
			}
			idxs = idxs[1:]
		}
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.size = 0
	s.openedAt = s.now()
	s.w.Reset(f)
	return nil
}

// rotatedIndices returns the numeric suffixes of existing <path>.<N>
// files, ascending (oldest first). The directory is listed and suffixes
// matched literally — not globbed — so paths containing glob
// metacharacters cannot break suffix resumption or retention.
func rotatedIndices(path string) []int {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var idxs []int
	for _, e := range entries {
		suffix, ok := strings.CutPrefix(e.Name(), base+".")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(suffix); err == nil && n > 0 {
			idxs = append(idxs, n)
		}
	}
	sort.Ints(idxs)
	return idxs
}

// RotatedFiles returns the retained rotated files, oldest first. It is
// empty for writer-backed sinks.
func (s *LogSink) RotatedFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	idxs := rotatedIndices(s.path)
	out := make([]string, len(idxs))
	for i, n := range idxs {
		out[i] = fmt.Sprintf("%s.%d", s.path, n)
	}
	return out
}

// Rotations returns how many times the sink has rotated its file.
func (s *LogSink) Rotations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotated
}

// Emit implements Sink.
func (s *LogSink) Emit(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Buffering into a closed sink would silently lose the record.
		return fmt.Errorf("fleet: log sink: emit after Close")
	}
	if s.f != nil && s.rotationDue() {
		if err := s.rotate(); err != nil {
			return fmt.Errorf("fleet: log sink rotate: %w", err)
		}
	}
	line, err := AppendJSON(s.line[:0], ev)
	if err != nil {
		return fmt.Errorf("fleet: log sink: %w", err)
	}
	s.line = append(line, '\n')
	n, err := s.w.Write(s.line)
	// size is the logical size of the active file, bytes still sitting
	// in the bufio layer included.
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("fleet: log sink: %w", err)
	}
	s.written++
	return nil
}

// Flush implements Sink.
func (s *LogSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("fleet: log sink flush: %w", err)
	}
	return nil
}

// Close flushes the buffer and, for file-backed sinks, closes the owned
// file. Writer-backed sinks leave closing the writer to its owner.
// Emitting after Close returns an error rather than silently buffering
// records no flush will ever persist.
func (s *LogSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("fleet: log sink flush: %w", err)
	}
	s.closed = true
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("fleet: log sink close: %w", err)
		}
		s.f = nil
	}
	return nil
}

// Written returns how many events have been encoded.
func (s *LogSink) Written() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// RingSink retains the newest N events in a fixed-size ring — the
// snapshot endpoint shape: bounded memory no matter how long a
// continuous fleet serves, always holding the freshest telemetry.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// NewRingSink creates a ring retaining the last n events.
func NewRingSink(n int) (*RingSink, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: ring sink needs positive capacity, got %d", n)
	}
	return &RingSink{buf: make([]Event, 0, n)}, nil
}

// Emit implements Sink.
func (s *RingSink) Emit(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next] = ev
		s.next = (s.next + 1) % cap(s.buf)
	}
	s.total++
	return nil
}

// Flush implements Sink (a ring has nothing to persist).
func (s *RingSink) Flush() error { return nil }

// Total returns how many events have passed through the ring.
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot returns the retained events, oldest first.
func (s *RingSink) Snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	if len(s.buf) < cap(s.buf) {
		return append(out, s.buf...)
	}
	out = append(out, s.buf[s.next:]...)
	return append(out, s.buf[:s.next]...)
}

// HistSink aggregates EventRobustness margins into per-patient
// histograms — the alerting-dashboard shape: a bounded summary of how
// close each patient's sessions run to their unsafe-control-action
// boundaries. Margins below the range clamp into the first bin, above
// it into the last, so violations are never dropped; non-finite margins
// (NaN, ±Inf) have no bin or meaningful mean and are dropped and
// counted instead (Dropped), never aggregated.
type HistSink struct {
	mu   sync.Mutex
	lo   float64
	hi   float64
	bins int

	counts  map[int][]int64 // patientIdx -> bin counts
	sum     map[int]float64 // patientIdx -> margin sum (for means)
	n       map[int]int64
	dropped int64 // non-finite margins rejected

	alertOn    bool
	alertFloor float64
	alertFn    func(Alert)
	alerts     []Alert
	alertN     int64

	// Adaptive percentile-floor alerting (SetAlertPercentile): the
	// global margin distribution across every patient, in the same bin
	// grid as the per-patient histograms.
	pctOn   bool
	pct     float64
	pctMin  int64
	pctFn   func(Alert)
	gCounts []int64
	gN      int64
}

// Alert records one margin sample that fell below the sink's configured
// alert floor — the push half of the alerting dashboard: dashboards get
// told when a session runs too close to an unsafe-control-action
// boundary instead of polling histograms.
type Alert struct {
	Session    int
	PatientIdx int
	Replica    int
	// Group is the session's tenant tag (empty for static slots).
	Group string
	// Step is the control cycle of the breaching sample.
	Step int
	// Margin is the breaching signed rule margin; Rule attributes it.
	Margin float64
	Rule   int
}

// maxAlerts bounds the retained alert log; older alerts roll off while
// AlertCount keeps the lifetime total.
const maxAlerts = 64

// NewHistSink creates a histogram sink with the given margin range and
// bin count. The margin here is the signed rule margin of the telemetry
// verdict (negative = inside the unsafe context).
func NewHistSink(lo, hi float64, bins int) (*HistSink, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("fleet: histogram sink needs positive bins, got %d", bins)
	}
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("fleet: histogram sink needs lo < hi, got [%v, %v]", lo, hi)
	}
	return &HistSink{
		lo: lo, hi: hi, bins: bins,
		counts: make(map[int][]int64),
		sum:    make(map[int]float64),
		n:      make(map[int]int64),
	}, nil
}

// SetAlertFloor arms margin-floor alerting: every robustness margin
// strictly below floor records an Alert (bounded log + lifetime count)
// and invokes fn, if non-nil, synchronously from Emit with no sink lock
// held. Configure before the run starts; the callback must not block
// (it runs on the sink delivery path).
func (s *HistSink) SetAlertFloor(floor float64, fn func(Alert)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alertOn = true
	s.alertFloor = floor
	s.alertFn = fn
}

// SetAlertPercentile arms adaptive percentile-floor alerting: the sink
// tracks the global margin distribution (all patients, one grid) and,
// once at least minSamples margins have arrived, records an Alert for
// every margin strictly below the pct-quantile of that distribution —
// e.g. 0.05 arms a p05 floor that tightens or relaxes as the serving
// distribution shifts, where a fixed floor would need retuning. The
// quantile resolves to the lower edge of the first bin whose cumulative
// count reaches pct of the samples, so the floor moves in bin-width
// steps and is deterministic for a deterministic event stream.
// minSamples <= 0 defaults to 100. A margin breaching both an armed
// fixed floor and the percentile floor records one Alert (the fixed
// floor wins the callback). Configure before the run starts; fn follows
// the SetAlertFloor contract.
func (s *HistSink) SetAlertPercentile(pct float64, minSamples int64, fn func(Alert)) error {
	if math.IsNaN(pct) || !(pct > 0 && pct < 1) {
		return fmt.Errorf("fleet: alert percentile must be in (0, 1), got %v", pct)
	}
	if minSamples <= 0 {
		minSamples = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pctOn = true
	s.pct = pct
	s.pctMin = minSamples
	s.pctFn = fn
	if s.gCounts == nil {
		s.gCounts = make([]int64, s.bins)
	}
	return nil
}

// AlertPercentileFloor returns the effective adaptive floor (the armed
// percentile resolved against the margins observed so far) and whether
// it is live yet (false until minSamples margins have arrived).
func (s *HistSink) AlertPercentileFloor() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pctFloorLocked()
}

// pctFloorLocked resolves the percentile floor; caller holds the lock.
func (s *HistSink) pctFloorLocked() (float64, bool) {
	if !s.pctOn || s.gN < s.pctMin {
		return 0, false
	}
	target := s.pct * float64(s.gN)
	var cum int64
	for i, c := range s.gCounts {
		cum += c
		if float64(cum) >= target {
			return s.lo + float64(i)*(s.hi-s.lo)/float64(s.bins), true
		}
	}
	return s.hi, true
}

// AlertCount returns how many margins have breached the alert floor.
func (s *HistSink) AlertCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alertN
}

// Alerts returns the most recent floor breaches, oldest first (bounded
// to the last maxAlerts).
func (s *HistSink) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// Emit implements Sink: only robustness events aggregate, everything
// else passes through untouched.
func (s *HistSink) Emit(ev Event) error {
	if ev.Kind != EventRobustness {
		return nil
	}
	s.mu.Lock()
	if math.IsNaN(ev.Margin) || math.IsInf(ev.Margin, 0) {
		// A NaN margin would make both clamp comparisons below false and
		// feed an implementation-defined float->int conversion, corrupting
		// counts and sums; ±Inf would poison the running mean. Count the
		// drop so the gap is observable instead of silent.
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	c, ok := s.counts[ev.PatientIdx]
	if !ok {
		c = make([]int64, s.bins)
		s.counts[ev.PatientIdx] = c
	}
	b := int(float64(s.bins) * (ev.Margin - s.lo) / (s.hi - s.lo))
	if b < 0 {
		b = 0
	}
	if b >= s.bins {
		b = s.bins - 1
	}
	c[b]++
	s.sum[ev.PatientIdx] += ev.Margin
	s.n[ev.PatientIdx]++
	if s.pctOn {
		// The sample joins the distribution before the quantile check, so
		// the floor at any point is a pure function of the stream so far.
		s.gCounts[b]++
		s.gN++
	}
	breach := s.alertOn && ev.Margin < s.alertFloor
	fireFn := s.alertFn
	if !breach && s.pctOn {
		if floor, live := s.pctFloorLocked(); live && ev.Margin < floor {
			breach = true
			fireFn = s.pctFn
		}
	}
	var fire func(Alert)
	var al Alert
	if breach {
		al = Alert{
			Session: ev.Session, PatientIdx: ev.PatientIdx, Replica: ev.Replica,
			Group: ev.Group, Step: ev.Step, Margin: ev.Margin, Rule: ev.MarginRule,
		}
		s.alertN++
		s.alerts = append(s.alerts, al)
		if len(s.alerts) > maxAlerts {
			s.alerts = s.alerts[len(s.alerts)-maxAlerts:]
		}
		fire = fireFn
	}
	s.mu.Unlock()
	if fire != nil {
		fire(al)
	}
	return nil
}

// Flush implements Sink (aggregation lives in memory).
func (s *HistSink) Flush() error { return nil }

// Dropped returns how many non-finite margins were rejected instead of
// aggregated.
func (s *HistSink) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Patients returns the patient indices seen, ascending.
func (s *HistSink) Patients() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.counts))
	for p := range s.counts { //fleetvet:nondeterministic order-independent: keys are sorted before return
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Histogram returns a copy of one patient's bin counts.
func (s *HistSink) Histogram(patientIdx int) ([]int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counts[patientIdx]
	if !ok {
		return nil, false
	}
	out := make([]int64, len(c))
	copy(out, c)
	return out, true
}

// Mean returns one patient's mean margin and sample count.
func (s *HistSink) Mean(patientIdx int) (float64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n[patientIdx]
	if n == 0 {
		return 0, 0
	}
	return s.sum[patientIdx] / float64(n), n
}

// Render prints the per-patient histograms as text bars.
func (s *HistSink) Render() string {
	var b strings.Builder
	width := (s.hi - s.lo) / float64(s.bins)
	for _, p := range s.Patients() {
		mean, n := s.Mean(p)
		fmt.Fprintf(&b, "patient %d — %d margins, mean %.3f\n", p, n, mean)
		hist, _ := s.Histogram(p)
		var maxC int64
		for _, c := range hist {
			if c > maxC {
				maxC = c
			}
		}
		for i, c := range hist {
			if c == 0 {
				continue
			}
			bar := int(40 * float64(c) / float64(maxC))
			fmt.Fprintf(&b, "  [%7.2f,%7.2f) %8d %s\n",
				s.lo+float64(i)*width, s.lo+float64(i+1)*width, c, strings.Repeat("#", bar))
		}
	}
	return b.String()
}
