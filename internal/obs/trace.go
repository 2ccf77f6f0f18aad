// Package obs is the unified observability layer for the storage
// stack: a low-overhead span tracer and a process-wide metrics
// registry, with JSONL, Chrome trace-event, and Prometheus-text
// exporters.
//
// The tracer is off by default. While disabled, Start returns a nil
// *Span and every Span method is a nil-safe no-op, so an instrumented
// hot path pays one atomic load and a predictable branch — no
// allocation, no clock read (BenchmarkObsOverhead asserts the bound).
// While enabled, completed spans land in a fixed-size ring (oldest
// overwritten first) and Snapshot copies them out for export. Span
// times come from the tracer's own monotonic clock: nanoseconds since
// the tracer's epoch.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a trace record.
type Kind uint8

const (
	// KindSpan is a completed span covering [Start, Start+Dur).
	KindSpan Kind = iota
	// KindInstant is a point event — a chaos fault-window edge, a lease
	// transition — with zero duration.
	KindInstant
)

// maxAttrs is a span's inline attribute capacity; attributes set past
// it are dropped. Bounded and allocation-free beats exhaustive.
const maxAttrs = 6

// DefaultRingSize is the completed-record ring capacity when Enable is
// called with a non-positive size.
const DefaultRingSize = 4096

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Record is one completed span or instant retained in the trace ring.
type Record struct {
	ID     uint64
	Parent uint64
	// Component is the emitting subsystem ("cas", "remote", "fleet");
	// Op the operation ("WriteRound", "hash", "Scrub"). Track is the
	// exporter timeline row — Component by default, "component/lane"
	// for per-worker spans.
	Component string
	Op        string
	Track     string
	Start     int64 // ns since the tracer's epoch
	Dur       int64 // ns; 0 for instants
	Kind      Kind
	NAttr     int
	Attrs     [maxAttrs]Attr
}

// Tracer collects completed records into a fixed overwrite-oldest ring.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu   sync.Mutex
	ring []Record
	next uint64 // records ever committed; ring holds the newest len(ring)
}

func newTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{epoch: time.Now(), ring: make([]Record, ringSize)}
}

// now is the trace clock: monotonic ns since the tracer's epoch.
func (t *Tracer) now() int64 {
	return time.Since(t.epoch).Nanoseconds()
}

func (t *Tracer) commit(r Record) {
	t.mu.Lock()
	t.ring[t.next%uint64(len(t.ring))] = r
	t.next++
	t.mu.Unlock()
}

func (t *Tracer) snapshot() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	count := t.next
	size := uint64(len(t.ring))
	if count > size {
		count = size
	}
	out := make([]Record, 0, count)
	for i := t.next - count; i < t.next; i++ {
		out = append(out, t.ring[i%size])
	}
	return out
}

// active is the installed tracer; nil means disabled. A single atomic
// load is the whole disabled-path cost of Start.
var active atomic.Pointer[Tracer]

// Enable installs a fresh tracer retaining ringSize completed records
// (DefaultRingSize when ringSize <= 0), replacing any previous tracer
// and its records.
func Enable(ringSize int) { active.Store(newTracer(ringSize)) }

// Disable uninstalls the tracer. Spans already started End harmlessly
// into the detached ring.
func Disable() { active.Store(nil) }

// Enabled reports whether a tracer is installed.
func Enabled() bool { return active.Load() != nil }

// Snapshot copies the retained records out in commit order, oldest
// first. Nil when disabled.
func Snapshot() []Record {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// Dropped reports how many records the ring has overwritten since
// Enable — non-zero means the ring was sized too small for the run.
func Dropped() uint64 {
	t := active.Load()
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if size := uint64(len(t.ring)); t.next > size {
		return t.next - size
	}
	return 0
}

// Span is one in-flight traced operation. A nil Span (tracing
// disabled) accepts every method as a no-op, so call sites never
// branch on Enabled themselves.
type Span struct {
	t         *Tracer
	id        uint64
	parent    uint64
	component string
	op        string
	track     string
	start     int64
	nattr     int
	attrs     [maxAttrs]Attr
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

func (t *Tracer) start(parent uint64, component, op string) *Span {
	s := spanPool.Get().(*Span)
	s.t = t
	s.id = t.ids.Add(1)
	s.parent = parent
	s.component = component
	s.op = op
	s.track = component
	s.nattr = 0
	s.start = t.now()
	return s
}

// Start opens a span for one operation of a component. It returns nil
// while tracing is disabled; every Span method is nil-safe, so the
// caller's only obligation is that the span reaches End on every path
// (the spanend analyzer enforces this).
func Start(component, op string) *Span {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.start(0, component, op)
}

// Child opens a sub-span of s on the same component.
func (s *Span) Child(op string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s.id, s.component, op)
}

// Lane moves the span onto the "component/lane" exporter track — one
// timeline row per pipeline worker — and returns s for chaining.
func (s *Span) Lane(lane string) *Span {
	if s == nil {
		return nil
	}
	s.track = s.component + "/" + lane
	return s
}

// Worker is Lane("w<i>") — the numbered-worker convenience.
func (s *Span) Worker(i int) *Span {
	if s == nil {
		return nil
	}
	return s.Lane("w" + strconv.Itoa(i))
}

// Attr attaches one key/value attribute (dropped past the inline
// capacity) and returns s for chaining.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.nattr < maxAttrs {
		s.attrs[s.nattr] = Attr{Key: key, Value: value}
		s.nattr++
	}
	return s
}

// AttrInt is Attr with an integer value.
func (s *Span) AttrInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatInt(v, 10))
}

// End completes the span, commits it to the ring, and returns its
// duration in nanoseconds — 0 when tracing was disabled at Start, so
// callers can gate duration-derived metric observations on the return
// value. The span must not be used after End.
func (s *Span) End() int64 {
	if s == nil {
		return 0
	}
	end := s.t.now()
	r := Record{
		ID:        s.id,
		Parent:    s.parent,
		Component: s.component,
		Op:        s.op,
		Track:     s.track,
		Start:     s.start,
		Dur:       end - s.start,
		Kind:      KindSpan,
		NAttr:     s.nattr,
		Attrs:     s.attrs,
	}
	s.t.commit(r)
	d := end - s.start
	*s = Span{}
	spanPool.Put(s)
	return d
}

// Instant records a point event on the component's track — chaos
// fault-window edges, lease transitions, rebalance topology changes.
// kv is alternating key, value pairs.
func Instant(component, name string, kv ...string) {
	t := active.Load()
	if t == nil {
		return
	}
	r := Record{
		ID:        t.ids.Add(1),
		Component: component,
		Op:        name,
		Track:     component,
		Start:     t.now(),
		Kind:      KindInstant,
	}
	for i := 0; i+1 < len(kv) && r.NAttr < maxAttrs; i += 2 {
		r.Attrs[r.NAttr] = Attr{Key: kv[i], Value: kv[i+1]}
		r.NAttr++
	}
	t.commit(r)
}

// Seconds converts an End duration (ns) to seconds for histogram
// observation.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }
