// Package flight is CopyCat's flight recorder: always-on, bounded
// incident capture over the observability event stream. The stream's
// ring already retains the recent past — spans, decision-log entries,
// and lifecycle events (breaker transitions, eviction attempts and
// failures, refine failures, store quarantines, admission sheds) — so
// the recorder keeps no copies of its own: it only adds periodic metric
// snapshots and applies its trigger rules to every published event.
//
// Trigger rules (SLO fast-burn, breaker open, eviction failure, refine
// failure, store quarantine, SIGQUIT) capture a self-contained JSON
// incident bundle: the trigger, pre/post metric snapshots with counter
// deltas, the retention window of the stream split into events, spans,
// and decisions, per-session and per-tenant attribution, and runtime
// stats. Bundles are kept in a bounded in-memory list and, when a
// directory is configured, written to a bounded on-disk incident dir
// (atomic temp+rename, oldest pruned). Per-trigger cooldowns and the
// incidents.suppressed counter keep incident storms from flooding the
// disk.
//
// Everything runs on the stream's clock, so virtual-clock sessions
// capture deterministically. A nil *Recorder is inert.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"copycat/internal/obs"
	"copycat/internal/resilience"
)

// Trigger kinds. Each kind has its own capture cooldown; captures
// suppressed by the cooldown increment incidents.suppressed.
const (
	// TriggerSLOFastBurn fires when a stage completion sees the SLO
	// fast-burn alert raised.
	TriggerSLOFastBurn = "slo.fastburn"
	// TriggerBreakerOpen fires when a service circuit breaker opens.
	TriggerBreakerOpen = "breaker.open"
	// TriggerEvictError fires when a session eviction fails.
	TriggerEvictError = "evict.error"
	// TriggerRefineFailure fires when a background exact refinement
	// errors out or returns no trees.
	TriggerRefineFailure = "refine.failed"
	// TriggerStoreQuarantine fires when the snapshot store quarantines a
	// corrupt file.
	TriggerStoreQuarantine = "store.quarantine"
	// TriggerSignal fires on an operator SIGQUIT — capture-on-demand.
	TriggerSignal = "sigquit"
)

// Event is one lifecycle event in a bundle's timeline.
type Event struct {
	Seq     int64  `json:"seq"`
	AtNs    int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// SpanRecord is one span of a bundle's timeline with its publish time
// on the stream clock (span StartNs/DurNs are trace-epoch-relative).
type SpanRecord struct {
	AtNs int64         `json:"at_ns"`
	Span obs.SpanEvent `json:"span"`
}

// DecisionRecord is one decision-log entry of a bundle's timeline with
// its publish time.
type DecisionRecord struct {
	AtNs     int64        `json:"at_ns"`
	Decision obs.Decision `json:"decision"`
}

// snapRecord is one periodic metric snapshot.
type snapRecord struct {
	at   time.Time
	snap obs.Snapshot
}

// Config wires a Recorder. Every field is optional.
type Config struct {
	// Dir, when non-empty, is the on-disk incident directory bundles are
	// written to (atomic temp+rename).
	Dir string
	// Metrics supplies the periodic and capture-time metric snapshots
	// (pre/post state in bundles).
	Metrics func() obs.Snapshot
	// Registry receives the incidents.captured / incidents.suppressed
	// counters and the incidents.stored gauge (exported by the telemetry
	// server as the copycat_incidents_* families). nil keeps them in a
	// private registry.
	Registry *obs.Registry
}

// Capture policy.
const (
	// Retention bounds how far back a bundle's timeline reaches (the
	// stream's ring bounds it too).
	Retention = 60 * time.Second
	// Cooldown is the per-trigger-kind minimum spacing between captures;
	// triggers inside it are suppressed (and counted).
	Cooldown = 30 * time.Second
	// SnapshotEvery paces the periodic metric snapshots that become a
	// bundle's "pre" state.
	SnapshotEvery = 5 * time.Second
	// MaxIncidents bounds both the in-memory incident list and the
	// on-disk incident dir (oldest pruned).
	MaxIncidents = 16
	// maxSnaps bounds the periodic-snapshot ring.
	maxSnaps = 16
)

// RuntimeStats is the process-level state captured into a bundle.
type RuntimeStats struct {
	Goroutines      int    `json:"goroutines"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
}

// Attribution counts how much of a bundle's timeline belongs to one
// session or tenant.
type Attribution struct {
	Events    int `json:"events,omitempty"`
	Spans     int `json:"spans,omitempty"`
	Decisions int `json:"decisions,omitempty"`
}

// Incident is one self-contained captured bundle — everything an
// operator needs to post-mortem the trigger without the live process.
type Incident struct {
	ID           string `json:"id"`
	Trigger      string `json:"trigger"`
	Reason       string `json:"reason,omitempty"`
	Session      string `json:"session,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	CapturedAtNs int64  `json:"captured_at_ns"`
	// Pre is the newest periodic metric snapshot preceding the capture
	// (PreAgeNs earlier); Post is taken at capture time. CounterDeltas
	// is post minus pre for every counter that moved.
	Pre           obs.Snapshot     `json:"pre"`
	PreAgeNs      int64            `json:"pre_age_ns,omitempty"`
	Post          obs.Snapshot     `json:"post"`
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
	// The retained timeline, oldest first, bounded by the retention
	// window and the ring caps.
	Events    []Event          `json:"events,omitempty"`
	Spans     []SpanRecord     `json:"spans,omitempty"`
	Decisions []DecisionRecord `json:"decisions,omitempty"`
	// Per-session / per-tenant share of the timeline.
	Sessions map[string]Attribution `json:"sessions,omitempty"`
	Tenants  map[string]Attribution `json:"tenants,omitempty"`
	Runtime  RuntimeStats           `json:"runtime"`
}

// Summary describes one captured incident (the GET /incidents list and
// the REPL :incidents table).
type Summary struct {
	ID           string `json:"id"`
	Trigger      string `json:"trigger"`
	Reason       string `json:"reason,omitempty"`
	Session      string `json:"session,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	CapturedAtNs int64  `json:"captured_at_ns"`
	Events       int    `json:"events"`
	Spans        int    `json:"spans"`
	Decisions    int    `json:"decisions"`
}

// Recorder is the flight recorder. Safe for concurrent use; a nil
// *Recorder is inert.
type Recorder struct {
	stream  *obs.Stream
	metrics func() obs.Snapshot

	mu          sync.Mutex
	dir         string
	nextID      int64
	snaps       *obs.Ring[snapRecord]
	lastSnap    time.Time
	lastTrigger map[string]time.Time
	incidents   *obs.Ring[*Incident]

	captured   *obs.Counter
	suppressed *obs.Counter
	stored     *obs.Gauge
}

// New builds a recorder over stream and attaches it, so its trigger
// rules see every event published there. The incidents.captured and
// incidents.suppressed counters are created immediately so the metric
// families exist (at zero) before the first incident.
func New(stream *obs.Stream, cfg Config) *Recorder {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Recorder{
		stream:      stream,
		metrics:     cfg.Metrics,
		dir:         cfg.Dir,
		snaps:       obs.NewRing[snapRecord](maxSnaps),
		lastTrigger: map[string]time.Time{},
		incidents:   obs.NewRing[*Incident](MaxIncidents),
		captured:    reg.Counter("incidents.captured"),
		suppressed:  reg.Counter("incidents.suppressed"),
		stored:      reg.Gauge("incidents.stored"),
	}
	stream.AttachIncidents(r)
	return r
}

// Attached returns the recorder attached to stream (nil if none).
func Attached(stream *obs.Stream) *Recorder {
	r, _ := stream.Incidents().(*Recorder)
	return r
}

// SetDir points the recorder at an on-disk incident directory (bundles
// captured from now on are persisted there). "" disables persistence.
func (r *Recorder) SetDir(dir string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
}

// Observe applies the trigger rules to one published event, and takes
// the periodic metric snapshot when one is due.
func (r *Recorder) Observe(ev *obs.Event) {
	if r == nil {
		return
	}
	at := time.Unix(0, ev.AtNs)
	if r.snapshotDue(at) {
		snap := r.metrics()
		r.snaps.Push(snapRecord{at: at, snap: snap})
	}
	switch ev.Kind {
	case obs.KindStage:
		// armed is a cheap cooldown pre-check, so the SLO status (three
		// window merges) is only computed when a capture could happen.
		if ev.Name == obs.SLOStage && r.armed(TriggerSLOFastBurn) {
			if st := r.stream.SLO(); st.FastAlert {
				r.Trigger(TriggerSLOFastBurn, st.String(), ev.Session, ev.Tenant)
			}
		}
	case obs.KindLifecycle:
		switch ev.Name {
		case obs.EventBreaker:
			if strings.HasSuffix(ev.Detail, "-> "+resilience.BreakerOpen.String()) {
				r.Trigger(TriggerBreakerOpen, ev.Detail, ev.Session, ev.Tenant)
			}
		case obs.EventEvictError:
			r.Trigger(TriggerEvictError, ev.Detail, ev.Session, ev.Tenant)
		case obs.EventRefineFailed:
			r.Trigger(TriggerRefineFailure, ev.Detail, ev.Session, ev.Tenant)
		case obs.EventQuarantine:
			r.Trigger(TriggerStoreQuarantine, ev.Session+": "+ev.Detail, ev.Session, ev.Tenant)
		}
	}
}

// snapshotDue decides whether a periodic metric snapshot is due at the
// given instant and claims the slot if so; the caller takes the
// snapshot without holding r.mu, since the Metrics callback reads other
// subsystems' locks.
func (r *Recorder) snapshotDue(now time.Time) bool {
	if r.metrics == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.lastSnap.IsZero() && now.Before(r.lastSnap) {
		// The clock moved backwards (a virtual clock was injected after
		// construction): re-anchor rather than stall forever.
		r.lastSnap = time.Time{}
		r.lastTrigger = map[string]time.Time{}
	}
	due := r.lastSnap.IsZero() || now.Sub(r.lastSnap) >= SnapshotEvery
	if due {
		r.lastSnap = now
	}
	return due
}

// armed reports whether a trigger of this kind would capture right now
// (i.e. it is outside the kind's cooldown).
func (r *Recorder) armed(kind string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	last, ok := r.lastTrigger[kind]
	if !ok {
		return true
	}
	now := r.stream.Now()
	return now.Before(last) || now.Sub(last) >= Cooldown
}

// Trigger captures an incident bundle for the given trigger kind,
// unless a capture of the same kind happened within the cooldown — then
// it is suppressed (incidents.suppressed). Returns the incident ID and
// whether a bundle was captured.
func (r *Recorder) Trigger(kind, reason, session, tenant string) (string, bool) {
	if r == nil {
		return "", false
	}
	r.mu.Lock()
	now := r.stream.Now()
	if last, ok := r.lastTrigger[kind]; ok && !now.Before(last) && now.Sub(last) < Cooldown {
		r.mu.Unlock()
		r.suppressed.Inc()
		return "", false
	}
	r.lastTrigger[kind] = now
	r.nextID++
	id := fmt.Sprintf("inc-%06d-%s", r.nextID, sanitizeID(kind))
	dir := r.dir
	r.mu.Unlock()

	var pre obs.Snapshot
	var preAge int64
	snaps := r.snaps.Snapshot()
	for i := len(snaps) - 1; i >= 0; i-- {
		if !snaps[i].at.After(now) {
			pre = snaps[i].snap
			preAge = now.Sub(snaps[i].at).Nanoseconds()
			break
		}
	}
	var post obs.Snapshot
	if r.metrics != nil {
		post = r.metrics()
	}
	inc := &Incident{
		ID: id, Trigger: kind, Reason: reason, Session: session, Tenant: tenant,
		CapturedAtNs:  now.UnixNano(),
		Pre:           pre,
		PreAgeNs:      preAge,
		Post:          post,
		CounterDeltas: counterDeltas(pre, post),
		Runtime:       captureRuntime(),
	}
	r.timeline(inc, now.Add(-Retention).UnixNano())
	inc.Sessions, inc.Tenants = attribute(inc)

	r.incidents.Push(inc)
	r.captured.Inc()
	r.stored.Set(float64(r.incidents.Len()))
	if dir != "" {
		// Best-effort: a full disk must not take the serving path down.
		_ = writeBundle(dir, inc)
	}
	return id, true
}

// timeline splits the stream's retained events published at or after
// cutoff into the bundle's events, spans, and decisions.
func (r *Recorder) timeline(inc *Incident, cutoff int64) {
	evs := r.stream.Snapshot()
	for _, ev := range evs {
		if ev.AtNs < cutoff {
			continue
		}
		switch ev.Kind {
		case obs.KindLifecycle:
			inc.Events = append(inc.Events, Event{
				Seq: ev.Seq, AtNs: ev.AtNs, Kind: ev.Name,
				Session: ev.Session, Tenant: ev.Tenant, Detail: ev.Detail,
			})
		case obs.KindSpan:
			sp := *ev.Span
			sp.Seq = ev.Seq
			inc.Spans = append(inc.Spans, SpanRecord{AtNs: ev.AtNs, Span: sp})
		case obs.KindDecision:
			inc.Decisions = append(inc.Decisions, DecisionRecord{AtNs: ev.AtNs, Decision: *ev.Decision})
		}
	}
}

// Incidents lists the retained bundles, newest first.
func (r *Recorder) Incidents() []Summary {
	if r == nil {
		return nil
	}
	incs := r.incidents.Snapshot()
	out := make([]Summary, 0, len(incs))
	for i := len(incs) - 1; i >= 0; i-- {
		inc := incs[i]
		out = append(out, Summary{
			ID: inc.ID, Trigger: inc.Trigger, Reason: inc.Reason,
			Session: inc.Session, Tenant: inc.Tenant,
			CapturedAtNs: inc.CapturedAtNs,
			Events:       len(inc.Events), Spans: len(inc.Spans), Decisions: len(inc.Decisions),
		})
	}
	return out
}

// Incident fetches one retained bundle by ID.
func (r *Recorder) Incident(id string) (*Incident, bool) {
	if r == nil {
		return nil, false
	}
	incs := r.incidents.Snapshot()
	for _, inc := range incs {
		if inc.ID == id {
			return inc, true
		}
	}
	return nil, false
}

// Captured reports how many bundles this recorder has captured.
func (r *Recorder) Captured() int64 {
	if r == nil {
		return 0
	}
	return r.captured.Load()
}

// Suppressed reports how many triggers the cooldowns suppressed.
func (r *Recorder) Suppressed() int64 {
	if r == nil {
		return 0
	}
	return r.suppressed.Load()
}

// Retained reports how much of the stream's retention window a bundle
// captured now would hold (events, spans, decisions) — the overhead
// experiment asserts the recorder actually had something to record.
func (r *Recorder) Retained() (events, spans, decisions int) {
	if r == nil {
		return 0, 0, 0
	}
	inc := &Incident{}
	r.timeline(inc, r.stream.Now().Add(-Retention).UnixNano())
	return len(inc.Events), len(inc.Spans), len(inc.Decisions)
}

// ---------------------------------------------------------------- capture helpers

// counterDeltas is post minus pre for every counter that moved; nil
// when there is no pre snapshot to diff against.
func counterDeltas(pre, post obs.Snapshot) map[string]int64 {
	if pre.Counters == nil || post.Counters == nil {
		return nil
	}
	out := map[string]int64{}
	for k, v := range post.Counters {
		if d := v - pre.Counters[k]; d != 0 {
			out[k] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func captureRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
}

// attribute counts the bundle's timeline per session and per tenant.
func attribute(inc *Incident) (sessions, tenants map[string]Attribution) {
	sessions = map[string]Attribution{}
	tenants = map[string]Attribution{}
	bump := func(m map[string]Attribution, key string, f func(*Attribution)) {
		if key == "" {
			return
		}
		a := m[key]
		f(&a)
		m[key] = a
	}
	for _, e := range inc.Events {
		bump(sessions, e.Session, func(a *Attribution) { a.Events++ })
		bump(tenants, e.Tenant, func(a *Attribution) { a.Events++ })
	}
	for _, s := range inc.Spans {
		bump(sessions, spanSession(s.Span), func(a *Attribution) { a.Spans++ })
	}
	for _, d := range inc.Decisions {
		bump(sessions, d.Decision.Session, func(a *Attribution) { a.Decisions++ })
	}
	if len(sessions) == 0 {
		sessions = nil
	}
	if len(tenants) == 0 {
		tenants = nil
	}
	return sessions, tenants
}

// spanSession reads a span's "session" attribute ("" when untagged).
func spanSession(sp obs.SpanEvent) string {
	for _, a := range sp.Attrs {
		if a.Key == "session" {
			return a.Value
		}
	}
	return ""
}

// sanitizeID maps a trigger kind onto a filename-safe ID suffix.
func sanitizeID(kind string) string {
	var b strings.Builder
	b.Grow(len(kind))
	for _, r := range kind {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- on-disk bundles

// bundleSuffix names incident files: <id>.json.
const bundleSuffix = ".json"

// writeBundle persists one incident atomically (temp + rename) and
// prunes the directory to the newest MaxIncidents bundles. Incident IDs
// are zero-padded sequence numbers, so lexicographic filename order is
// capture order.
func writeBundle(dir string, inc *Incident) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, inc.ID+bundleSuffix+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, inc.ID+bundleSuffix)); err != nil {
		os.Remove(tmp)
		return err
	}
	return pruneBundles(dir)
}

// pruneBundles deletes the oldest bundles beyond MaxIncidents.
func pruneBundles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), bundleSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) <= MaxIncidents {
		return nil
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-MaxIncidents] {
		os.Remove(filepath.Join(dir, name))
	}
	return nil
}

// ReadBundle loads an incident bundle from a JSON file written by
// writeBundle (the -analyze-incident path).
func ReadBundle(path string) (*Incident, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		return nil, fmt.Errorf("flight: %s is not an incident bundle: %w", path, err)
	}
	if inc.ID == "" || inc.Trigger == "" {
		return nil, fmt.Errorf("flight: %s is not an incident bundle (no id/trigger)", path)
	}
	return &inc, nil
}
