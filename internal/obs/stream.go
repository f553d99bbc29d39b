package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one event on the stream.
type EventKind uint8

// The event kinds. Span ends, decisions, and lifecycle events are
// retained in the stream's ring (the /trace/stream feed and the flight
// recorder's timeline); stage completions and quality events are only
// dispatched to the stream's consumers.
const (
	// KindSpan is a finished span (Event.Span).
	KindSpan EventKind = iota + 1
	// KindDecision is a decision-log entry (Event.Decision).
	KindDecision
	// KindStage is a completed pipeline stage: Event.Name and Event.Dur.
	KindStage
	// KindQuality is a suggestion-feedback observation (Event.Quality).
	KindQuality
	// KindLifecycle is a lifecycle event: Event.Name is one of the
	// Event* names below, Event.Detail says what happened.
	KindLifecycle
)

// Lifecycle event names.
const (
	// EventBreaker is a circuit-breaker state transition; the detail is
	// "<service>: <from> -> <to>".
	EventBreaker = "breaker.transition"
	// EventEvict is a successful session eviction to the store.
	EventEvict = "session.evict"
	// EventEvictError is a failed eviction (snapshot or store error).
	EventEvictError = "session.evict_error"
	// EventShed is an admission-control rejection of a session create.
	EventShed = "admission.shed"
	// EventRefineFailed is a failed background exact refinement.
	EventRefineFailed = "solver.refine_failed"
	// EventQuarantine is a corrupt snapshot moved to quarantine; the
	// event's session is the snapshot's ID.
	EventQuarantine = "store.quarantine"
)

// Event is one observation on the stream. Kind says which payload
// field is set. The span, decision, and quality payloads are pointers
// so a retained event stays small, and so the decision log and the
// stream share one copy of each decision; a published payload is never
// modified.
type Event struct {
	// Seq is the event's position in the stream's ring (retained kinds
	// only); AtNs is its publish time on the stream clock.
	Seq  int64
	AtNs int64
	// Session and Tenant attribute the event; a stream handle from For
	// fills them in when the publisher leaves them empty.
	Session string
	Tenant  string
	// Name is the stage name (KindStage) or the lifecycle event name
	// (KindLifecycle); Detail is the lifecycle event's description.
	Name   string
	Detail string
	// Dur is the completed stage's latency (KindStage).
	Dur      time.Duration
	Span     *SpanEvent
	Decision *Decision
	Quality  *QualityEvent
	Kind     EventKind
}

// StreamCapacity bounds the stream's ring: the most recent span ends,
// decisions, and lifecycle events, shared by the live span feed and the
// flight recorder's timeline. It is sized for a session host's memory:
// a host ring keeps evicted sessions' decisions alive, and 4096 raised
// the host-churn benchmark's live heap by about a fifth.
const StreamCapacity = 2048

// Incidents is the flight recorder a stream feeds: it sees every
// published event after the stream's own consumers and applies its
// trigger rules. *flight.Recorder implements it; it is an interface only
// because package flight builds on this one.
type Incidents interface {
	Observe(ev *Event)
}

// hub is the state every handle on one stream shares.
type hub struct {
	clock     atomic.Pointer[Clock]
	ring      *Ring[Event]
	slo       *SLOTracker
	incidents Incidents
	// Host streams only: aggregate stage histograms ("host.latency.*")
	// and the host-wide and per-tenant quality trackers.
	hostStages  *Registry
	hostQuality *QualityTracker
	tmu         sync.Mutex
	tenants     map[string]*QualityTracker
}

// Stream is the one observability event path. Every pipeline signal —
// span ends, decisions, stage completions, quality feedback, lifecycle
// events — is one Publish. The stream stamps the event on its clock,
// retains it in one ring, and dispatches it with a fixed switch to the
// consumers it owns: a workspace's own quality tracker and stage
// histograms (Bind), the SLO tracker, on a host stream the aggregate
// stage histograms and the host and tenant quality trackers, and
// finally the flight recorder's trigger rules. There is no subscriber
// registry: /trace/stream and incident capture both read the ring.
//
// A standalone workspace owns a stream; a session host owns one for the
// whole fleet and hands each hosted workspace a handle from For. A nil
// *Stream is inert.
type Stream struct {
	*hub            // nil on a detached handle from (*Stream)(nil).Bind
	session, tenant string
	owner           bool            // built by NewStream/NewHostStream, not For
	quality         *QualityTracker // a workspace's own consumers (Bind)
	stages          *Registry
}

// NewStream builds a stream on clock (nil means the wall clock).
func NewStream(clock Clock) *Stream {
	s := &Stream{hub: &hub{ring: NewRing[Event](StreamCapacity), slo: NewSLOTracker()}, owner: true}
	s.SetClock(clock)
	return s
}

// NewHostStream builds a session host's stream: it additionally folds
// every stage completion into metrics as "host.latency.<stage>" and
// every quality event into host-wide and per-tenant trackers, so both
// survive session eviction.
func NewHostStream(clock Clock, metrics *Registry) *Stream {
	s := NewStream(clock)
	s.hostStages = metrics
	s.hostQuality = NewQualityTracker()
	s.tenants = map[string]*QualityTracker{}
	return s
}

// attached is false for nil and for a detached handle.
func (s *Stream) attached() bool { return s != nil && s.hub != nil }

// For returns a handle on s that attributes the events published
// through it to session and tenant. It shares s's clock, ring, and
// consumers, but not the session consumers of a Bind handle.
func (s *Stream) For(session, tenant string) *Stream {
	if !s.attached() {
		return nil
	}
	return &Stream{hub: s.hub, session: session, tenant: tenant}
}

// Bind returns a copy of the handle s that also feeds a workspace's own
// consumers: quality events into quality, stage completions into
// stages as "latency.<stage>". On a nil s the copy is a detached handle
// that feeds only those, so a workspace without a stream keeps its own
// telemetry.
func (s *Stream) Bind(quality *QualityTracker, stages *Registry) *Stream {
	b := &Stream{quality: quality, stages: stages}
	if s != nil {
		b.hub, b.session, b.tenant, b.owner = s.hub, s.session, s.tenant, s.owner
	}
	return b
}

// Session reports the session this handle attributes events to ("" for
// an unattributed handle).
func (s *Stream) Session() string {
	if s == nil {
		return ""
	}
	return s.session
}

// SetClock replaces the stream clock (nil means the wall clock). Only
// the stream's builder may: on a handle from For it is a no-op, so a
// hosted workspace cannot move its host's clock.
func (s *Stream) SetClock(c Clock) {
	if !s.attached() || !s.owner {
		return
	}
	if c == nil {
		c = SystemClock{}
	}
	s.clock.Store(&c)
}

// Clock returns the stream clock (the wall clock on a nil or detached
// stream).
func (s *Stream) Clock() Clock {
	if !s.attached() {
		return SystemClock{}
	}
	return *s.clock.Load()
}

// Now reads the stream clock.
func (s *Stream) Now() time.Time { return s.Clock().Now() }

// AttachIncidents installs the flight recorder whose trigger rules see
// every event. flight.New calls it; it must run before the first
// Publish.
func (s *Stream) AttachIncidents(r Incidents) {
	if s.attached() {
		s.incidents = r
	}
}

// Incidents returns the attached flight recorder (nil if none).
func (s *Stream) Incidents() Incidents {
	if !s.attached() {
		return nil
	}
	return s.incidents
}

// Publish feeds ev to a Bind handle's own consumers, stamps it on the
// stream clock, retains it if its kind is retained, and dispatches it
// to the stream's consumers.
func (s *Stream) Publish(ev Event) {
	if s == nil {
		return
	}
	switch ev.Kind {
	case KindStage:
		if s.stages != nil {
			s.stages.Histogram("latency." + ev.Name).Observe(ev.Dur)
		}
	case KindQuality:
		s.quality.Observe(*ev.Quality)
	}
	if s.hub == nil {
		return
	}
	now := s.Now()
	ev.AtNs = now.UnixNano()
	if ev.Session == "" {
		ev.Session = s.session
	}
	if ev.Tenant == "" {
		ev.Tenant = s.tenant
	}
	switch ev.Kind {
	case KindSpan, KindDecision, KindLifecycle:
		ev.Seq = s.ring.Push(ev)
	case KindStage:
		if ev.Name == SLOStage {
			s.slo.Observe(now, ev.Dur)
		}
		if s.hostStages != nil {
			s.hostStages.Histogram("host.latency." + ev.Name).Observe(ev.Dur)
		}
	case KindQuality:
		s.hostQuality.Observe(*ev.Quality)
		if s.tenants != nil {
			s.tenantTracker(ev.Tenant).Observe(*ev.Quality)
		}
	}
	if s.incidents != nil {
		s.incidents.Observe(&ev)
	}
}

// tenantTracker returns (creating if needed) the quality tracker of a tenant.
func (s *Stream) tenantTracker(tenant string) *QualityTracker {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok := s.tenants[tenant]
	if !ok {
		t = NewQualityTracker()
		s.tenants[tenant] = t
	}
	return t
}

// Snapshot returns every retained event, oldest first, with Seq filled
// in.
func (s *Stream) Snapshot() []Event {
	events, _, _ := s.since(0, false)
	return events
}

// Since returns the retained events with Seq >= cursor, oldest first,
// the cursor to resume from, and a channel that closes on the next
// retained event (Ring.Since on the stream's ring, with Seq filled in).
func (s *Stream) Since(cursor int64) (events []Event, next int64, wake <-chan struct{}) {
	return s.since(cursor, true)
}

func (s *Stream) since(cursor int64, follow bool) (events []Event, next int64, wake <-chan struct{}) {
	if !s.attached() {
		return (*Ring[Event])(nil).since(cursor, follow)
	}
	events, next, wake = s.ring.since(cursor, follow)
	first := next - int64(len(events))
	for i := range events {
		events[i].Seq = first + int64(i)
	}
	return events, next, wake
}

// Dropped reports how many retained events lagging Since readers
// missed. It is exported as spans.dropped; the span feed is this
// stream, so the count includes missed decisions and lifecycle events.
func (s *Stream) Dropped() int64 {
	if !s.attached() {
		return 0
	}
	return s.ring.Dropped()
}

// SLO reports the latency objective's status as of now on the stream
// clock.
func (s *Stream) SLO() SLOStatus {
	if !s.attached() {
		return SLOStatus{}
	}
	return s.slo.Status(s.Now())
}

// Quality snapshots a host stream's host-wide quality tracker.
func (s *Stream) Quality() QualityStats {
	if !s.attached() {
		return (*QualityTracker)(nil).Snapshot()
	}
	return s.hostQuality.Snapshot()
}

// TenantQuality snapshots a host stream's per-tenant quality trackers;
// tenants that have produced no feedback yet are absent.
func (s *Stream) TenantQuality() map[string]QualityStats {
	if !s.attached() {
		return map[string]QualityStats{}
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make(map[string]QualityStats, len(s.tenants))
	for tenant, t := range s.tenants {
		out[tenant] = t.Snapshot()
	}
	return out
}
