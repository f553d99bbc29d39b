// Package copycat is the public API of the CopyCat smart-copy-and-paste
// (SCP) data integration system — a from-scratch reproduction of the
// CIDR 2009 paper "Interactive Data Integration through Smart Copy &
// Paste" (Ives, Knoblock, Minton, et al.).
//
// CopyCat watches as a user copies data from applications — web pages,
// spreadsheets, documents — and pastes it into a spreadsheet-like
// workspace. It generalizes each paste into extraction rules (row
// auto-completions), learns the semantic types of pasted columns,
// proposes column auto-completions via associations to other sources and
// services (joins, dependent joins, record linking), explains every
// suggested tuple with data provenance, and learns from accept/reject
// feedback using the MIRA online algorithm over a weighted source graph.
//
// A minimal session:
//
//	sys := copycat.NewDemoSystem(copycat.DefaultWorldConfig())
//	browser := sys.OpenBrowser(sys.ShelterSite(copycat.StyleTable))
//	sel, _ := browser.CopyRows([][]string{{name1, street1, city1}, {name2, street2, city2}})
//	sys.Workspace.Paste(sel)          // rows auto-complete, columns get typed
//	sys.Workspace.AcceptRows()        // commit the import
//	sys.Workspace.SetMode(copycat.ModeIntegration)
//	cols := sys.Workspace.RefreshColumnSuggestions()
//	sys.Workspace.AcceptColumn(0)     // e.g. the suggested Zip column
//	kml, _ := copycat.KML(sys.Workspace.ActiveTab().Relation())
package copycat

import (
	"context"
	"io"
	"time"

	"copycat/internal/catalog"
	"copycat/internal/docmodel"
	"copycat/internal/engine"
	"copycat/internal/export"
	"copycat/internal/intlearn"
	"copycat/internal/modellearn"
	"copycat/internal/obs"
	"copycat/internal/obs/flight"
	"copycat/internal/obs/serve"
	"copycat/internal/plancache"
	"copycat/internal/resilience"
	"copycat/internal/services"
	"copycat/internal/session"
	"copycat/internal/table"
	"copycat/internal/webworld"
	"copycat/internal/workspace"
	"copycat/internal/wrappers"
)

// Re-exported core types. The internal packages hold the implementations;
// these aliases form the supported public surface.
type (
	// Workspace is the SCP workspace: tabs, modes, pastes, suggestions,
	// feedback, and explanations.
	Workspace = workspace.Workspace
	// Tab is one workspace pane.
	Tab = workspace.Tab
	// Mode is the workspace interaction mode.
	Mode = workspace.Mode
	// Selection is a copied block of cells with its source context.
	Selection = docmodel.Selection
	// Document is a source document (HTML page, spreadsheet, text).
	Document = docmodel.Document
	// Site is a set of linked documents from one source.
	Site = docmodel.Site
	// Browser is the web-browser application wrapper.
	Browser = wrappers.Browser
	// Spreadsheet is the Excel-like application wrapper.
	Spreadsheet = wrappers.Spreadsheet
	// Catalog is the system catalog of sources and services.
	Catalog = catalog.Catalog
	// TypeLibrary holds learned semantic types.
	TypeLibrary = modellearn.Library
	// Relation is an in-memory table.
	Relation = table.Relation
	// Schema is an ordered list of typed columns.
	Schema = table.Schema
	// Service is a callable source with input binding restrictions.
	Service = engine.Service
	// ExecCtx is the execution context threaded through plan execution:
	// deadline/cancellation, row budget, service cache, and stats.
	ExecCtx = engine.ExecCtx
	// ExecStats is a point-in-time copy of executor instrumentation.
	ExecStats = engine.StatsSnapshot
	// Completion is one proposed column auto-completion.
	Completion = intlearn.Completion
	// PlanCache is the fingerprint-keyed candidate-plan result cache
	// behind incremental suggestion refresh.
	PlanCache = plancache.Cache
	// MetricsSnapshot is the unified, JSON-serializable metrics surface:
	// counters, gauges, and latency histograms with p50/p95/p99.
	MetricsSnapshot = obs.Snapshot
	// Trace is the pipeline span tracer (Chrome trace_event exportable).
	Trace = obs.Trace
	// Decision is one decision-log entry: why a candidate was pruned,
	// degraded, suggested, outranked, accepted, or rejected.
	Decision = obs.Decision
	// SLOStatus is the latency objective's point-in-time report:
	// windowed error rates, fast/slow burn rates, and alert states.
	SLOStatus = obs.SLOStatus
	// BreakerStatus is one service circuit breaker's state and trip
	// count, as exported by the telemetry server.
	BreakerStatus = resilience.BreakerStatus
	// TelemetryServer is the live telemetry HTTP server started by
	// System.Serve: /metrics, /healthz, /readyz, /slo, /trace/stream,
	// /decisions, and /debug/pprof.
	TelemetryServer = serve.Server
	// WorldConfig sizes the synthetic demo world.
	WorldConfig = webworld.Config
	// World is the generated synthetic world.
	World = webworld.World
	// SiteStyle selects the shelter site's page complexity.
	SiteStyle = webworld.SiteStyle
	// Session is the handle all of a user's mutable state hangs off —
	// the unit of multi-tenant hosting, eviction, and reload.
	Session = session.Session
	// SessionState is the state bundle a session owns (workspace,
	// catalog, type library).
	SessionState = session.State
	// SessionFactory builds fresh session state for creates and reloads.
	SessionFactory = session.Factory
	// SessionManager hosts many concurrent sessions with LRU eviction
	// and admission control.
	SessionManager = session.Manager
	// SessionConfig sizes a SessionManager.
	SessionConfig = session.Config
	// SessionInfo describes one hosted session.
	SessionInfo = session.Info
	// SessionStats is the manager-level counter block.
	SessionStats = session.HostStats
	// SessionStore persists evicted sessions' snapshots.
	SessionStore = session.Store
	// SessionFileStore is the durable snapshot tier: one
	// gzip-compressed, CRC-checked file per snapshot, written
	// atomically, with corrupt files quarantined instead of poisoning
	// reloads.
	SessionFileStore = session.FileStore
	// SessionStoreStats reports a snapshot store's contents and health.
	SessionStoreStats = session.StoreStats
	// QualityStats is the rolling suggestion-quality report: acceptance
	// rate, per-surface accept/reject counts, rank-of-accepted
	// histogram, and feedback rounds to accept.
	QualityStats = obs.QualityStats
	// QualityReport is the /quality response body: host-level
	// QualityStats plus a per-tenant breakdown on hosted installations.
	QualityReport = serve.QualityReport
	// IncidentRecorder is the always-on flight recorder: it retains the
	// recent spans, decisions, metric snapshots, and lifecycle events,
	// and captures self-contained incident bundles when a trigger rule
	// (SLO fast-burn, breaker open, eviction failure, refine failure,
	// store quarantine, SIGQUIT) fires.
	IncidentRecorder = flight.Recorder
	// Incident is one captured incident bundle: trigger, pre/post metric
	// snapshots with counter deltas, the retained timeline, per-session
	// and per-tenant attribution, and runtime stats.
	Incident = flight.Incident
	// IncidentSummary describes one captured incident (the GET /incidents
	// list and the REPL :incidents table).
	IncidentSummary = flight.Summary
)

// Session lifecycle sentinels (admission rejections and pin conflicts).
var (
	// ErrSessionNotFound reports an unknown or destroyed session ID.
	ErrSessionNotFound = session.ErrNotFound
	// ErrSessionBusy reports an evict attempt on a pinned session.
	ErrSessionBusy = session.ErrBusy
	// ErrHostCapacity reports a create shed because the session table
	// is full.
	ErrHostCapacity = session.ErrCapacity
	// ErrHostOverloaded reports a create shed by the SLO/breaker-driven
	// admission control.
	ErrHostOverloaded = session.ErrOverloaded
)

// NewSessionManager builds a multi-tenant session manager; see
// SessionConfig for the caps and substrate handles.
func NewSessionManager(cfg SessionConfig) *SessionManager { return session.NewManager(cfg) }

// Workspace modes.
const (
	ModeImport      = workspace.ModeImport
	ModeIntegration = workspace.ModeIntegration
	ModeCleaning    = workspace.ModeCleaning
)

// Shelter-site complexity styles (the E3 ladder).
const (
	StyleTable   = webworld.StyleTable
	StyleList    = webworld.StyleList
	StyleGrouped = webworld.StyleGrouped
	StylePaged   = webworld.StylePaged
	StyleForm    = webworld.StyleForm
	StyleProse   = webworld.StyleProse
)

// System bundles a workspace with its catalog, type library, and (for
// demo installations) the synthetic world. Since the session refactor a
// System is a thin view over one Session handle: NewSystem and
// NewDemoSystem wrap a standalone (unmanaged, never-evicted) session,
// while Host hands out Systems over managed sessions — the library API
// and the multi-tenant service share one state model.
type System struct {
	Workspace *Workspace
	Catalog   *Catalog
	Types     *TypeLibrary
	// World is non-nil for demo systems built with NewDemoSystem.
	World *World
	// Clock is the virtual clock the system runs on: the one driving
	// injected latency, backoff, and breaker cooldowns when the demo
	// system was built with a positive FaultRate, or a host's virtual
	// SessionConfig.Clock; nil on the wall clock. Its elapsed time is the
	// experiment's simulated latency.
	Clock *obs.VirtualClock
	// Session is the handle owning this system's mutable state — a
	// standalone handle for NewSystem/NewDemoSystem, a managed one for
	// systems attached through a Host.
	Session *Session
}

// systemFor wraps a session's state in the System facade.
func systemFor(s *Session, world *World) *System {
	st := s.State()
	sys := &System{
		Workspace: st.Workspace,
		Catalog:   st.Catalog,
		Types:     st.Types,
		World:     world,
		Session:   s,
	}
	if vc, ok := st.Workspace.Clock().(*obs.VirtualClock); ok {
		sys.Clock = vc
	}
	return sys
}

// NewSystem creates an empty CopyCat installation: no sources, no
// services, no trained types. Callers register services and train types
// themselves.
func NewSystem() *System {
	cat := catalog.New()
	types := modellearn.NewLibrary()
	st := &session.State{Workspace: workspace.New(cat, types), Catalog: cat, Types: types}
	return systemFor(session.NewStandalone("local", st), nil)
}

// DefaultWorldConfig returns the standard demo world sizing.
func DefaultWorldConfig() WorldConfig { return webworld.DefaultConfig() }

// newDemoState builds one session's worth of demo state over a shared
// synthetic world: catalog with builtin services (fault-wrapped when
// cfg.FaultRate > 0), pre-trained type library, fresh workspace with
// the resilience layer and virtual clock wired when faults are on.
func newDemoState(w *webworld.World, cfg WorldConfig) *session.State {
	cat := catalog.New()
	svcs := services.Builtin(w)
	var clock *obs.VirtualClock
	if cfg.FaultRate > 0 {
		clock = obs.NewVirtualClock()
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		svcs = services.WrapFlaky(svcs, services.FaultConfig{
			Seed:             seed,
			TransientRate:    cfg.FaultRate,
			BaseLatency:      2 * time.Millisecond,
			LatencySpikeRate: cfg.FaultRate / 4,
			LatencySpike:     250 * time.Millisecond,
			Clock:            clock,
		})
	}
	for _, svc := range svcs {
		cat.AddService(svc, "builtin")
	}
	types := modellearn.NewLibrary()
	modellearn.TrainBuiltins(types, w)
	ws := workspace.New(cat, types)
	if cfg.FaultRate > 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		policy := resilience.DefaultPolicy()
		policy.Seed = seed
		policy.Clock = clock
		ws.Resilience = resilience.NewCaller(policy, resilience.DefaultBreakerConfig())
		// Stage latencies and traces run on the same virtual clock as the
		// injected faults, keeping the whole session deterministic.
		ws.SetClock(clock)
	}
	return &session.State{Workspace: ws, Catalog: cat, Types: types}
}

// NewDemoSystem creates a CopyCat installation wired to a synthetic
// hurricane-relief world: builtin services (zip resolver, geocoder,
// shelter locator, reverse directory, converters) are registered and the
// builtin semantic types are pre-trained — the "previously learned
// knowledge" the prototype ships with.
//
// When cfg.FaultRate is positive, every builtin service is wrapped in a
// deterministic fault injector (seeded transient errors and latency
// spikes on a virtual clock) and the workspace gets a resilience layer —
// retries, circuit breakers, graceful row degradation — so the system
// behaves like the paper's live Google/Yahoo-backed prototype on a bad
// network day, reproducibly. With FaultRate 0 the system is identical to
// a plain demo system.
func NewDemoSystem(cfg WorldConfig) *System {
	w := webworld.Generate(cfg)
	return systemFor(session.NewStandalone("local", newDemoState(w, cfg)), w)
}

// DemoFactory returns a SessionFactory producing demo states: the
// synthetic world is generated once and shared read-only across every
// session (sites and service data are immutable), while each session
// gets its own catalog, services, trained types, and workspace. This is
// the factory behind Host and the capacity benchmarks.
func DemoFactory(cfg WorldConfig) SessionFactory {
	w := webworld.Generate(cfg)
	return func() (*SessionState, error) { return newDemoState(w, cfg), nil }
}

// Host is a multi-tenant CopyCat service over one shared demo world: a
// SessionManager whose factory builds demo states, plus the world
// handle the wrapper applications (browser, spreadsheet) need.
type Host struct {
	Manager *SessionManager
	World   *World
}

// NewDemoHost builds a host over a fresh demo world. cfg.Factory is
// overwritten with the world's DemoFactory; all other SessionConfig
// knobs (caps, budget, clock, SLO, tracing) apply as given.
func NewDemoHost(world WorldConfig, cfg SessionConfig) *Host {
	w := webworld.Generate(world)
	cfg.Factory = func() (*SessionState, error) { return newDemoState(w, world), nil }
	return &Host{Manager: session.NewManager(cfg), World: w}
}

// NewFileSessionStore opens (creating if needed) a durable snapshot
// store rooted at dir; pass it as SessionConfig.Store to make a host
// survive restarts.
func NewFileSessionStore(dir string) (*SessionFileStore, error) {
	return session.NewFileStore(dir)
}

// NewDurableDemoHost is NewDemoHost over a file-backed snapshot store
// rooted at storeDir. Because the demo world is generated
// deterministically from its WorldConfig, a host rebuilt over the same
// directory (after a crash or restart) recovers every on-disk session:
// they are re-registered as evicted and transparently reloaded on
// their next Attach.
func NewDurableDemoHost(world WorldConfig, cfg SessionConfig, storeDir string) (*Host, error) {
	fs, err := session.NewFileStore(storeDir)
	if err != nil {
		return nil, err
	}
	cfg.Store = fs
	return NewDemoHost(world, cfg), nil
}

// Create admits a new session for tenant and returns the System view
// over it, already pinned — call Release when done with it.
func (h *Host) Create(tenant string) (*System, error) {
	s, err := h.Manager.Create(tenant)
	if err != nil {
		return nil, err
	}
	return systemFor(s, h.World), nil
}

// Attach pins an existing session (transparently reloading it from its
// snapshot if it was evicted) and returns the System view over it —
// call Release when done.
func (h *Host) Attach(id string) (*System, error) {
	s, err := h.Manager.Acquire(id)
	if err != nil {
		return nil, err
	}
	return systemFor(s, h.World), nil
}

// Serve starts the telemetry server for the whole host: aggregate
// metrics and SLO across every session, the shared span stream, and
// the /sessions lifecycle endpoints with admission-controlled creates.
func (h *Host) Serve(ctx context.Context, addr string) (*TelemetryServer, error) {
	srv := serve.New(serve.Config{
		Metrics:   h.Manager.MetricsSnapshot,
		Stream:    h.Manager.Stream(),
		Host:      h.Manager,
		Decisions: h.Manager.Decisions(),
		Quality: func() serve.QualityReport {
			return serve.QualityReport{
				QualityStats: h.Manager.Stream().Quality(),
				Tenants:      h.Manager.Stream().TenantQuality(),
			}
		},
	})
	if err := srv.Start(ctx, addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Release unpins the system's session (no-op for standalone systems
// built with NewSystem/NewDemoSystem).
func (s *System) Release() { s.Session.Release() }

// RegisterService adds a callable service to the catalog and refreshes
// the source graph's associations.
func (s *System) RegisterService(svc Service, origin string) {
	s.Catalog.AddService(svc, origin)
}

// Stats snapshots the executor instrumentation accumulated across the
// session: per-operator rows in/out, service calls, service-cache hits,
// and Steiner branches pruned. scpbench surfaces this via -stats.
func (s *System) Stats() ExecStats {
	return s.Workspace.ExecStats.Snapshot()
}

// ResetStats zeroes the accumulated executor statistics.
func (s *System) ResetStats() {
	s.Workspace.ExecStats.Reset()
}

// Metrics returns the unified observability snapshot: the engine's
// execution counters (prefixed "engine."), service-cache gauges
// (cache.entries, cache.hit_rate), and per-stage latency histograms
// with p50/p95/p99. It is JSON-serializable as-is (scpbench -json).
func (s *System) Metrics() MetricsSnapshot {
	return s.Workspace.MetricsSnapshot()
}

// ResetMetrics zeroes the metrics registry and the executor statistics
// (histogram bucket ladders and instrument names are kept).
func (s *System) ResetMetrics() {
	s.Workspace.Metrics.Reset()
	s.Workspace.ExecStats.Reset()
	s.Workspace.Decisions.Reset()
}

// SLO reports the suggestion-refresh latency objective's current
// status: error rates and burn rates over the rolling fast/slow
// windows, and whether either burn alert is firing.
func (s *System) SLO() SLOStatus {
	return s.Workspace.SLO()
}

// Breakers snapshots every service circuit breaker the resilience
// layer has created (empty without a resilience layer or before any
// service call).
func (s *System) Breakers() []BreakerStatus {
	return s.Workspace.Resilience.Status()
}

// FlightRecorder exposes the session's always-on flight recorder —
// the incident-capture surface behind GET /incidents and the REPL's
// :incidents command.
func (s *System) FlightRecorder() *IncidentRecorder {
	return s.Workspace.Flight()
}

// Quality reports the session's rolling suggestion-quality stats:
// acceptance rate, per-surface accept/reject counts, rank-of-accepted
// histogram, and feedback rounds to accept (the REPL's :quality
// command).
func (s *System) Quality() QualityStats {
	return s.Workspace.QualityStats()
}

// Serve starts the live telemetry server on addr (":0" picks a free
// port; read it back with Addr on the returned server). It exposes the
// full observability surface of this system — unified metrics in
// Prometheus/OpenMetrics text exposition, health and readiness
// computed from breaker state and SLO burn, live span streaming, the
// decision log, and pprof — and shuts down gracefully when ctx is
// cancelled.
func (s *System) Serve(ctx context.Context, addr string) (*TelemetryServer, error) {
	srv := serve.New(serve.Config{
		Metrics:   s.Workspace.MetricsSnapshot,
		Breakers:  s.Workspace.Resilience.Status,
		Stream:    s.Workspace.Stream(),
		Decisions: s.Workspace.Decisions,
		Quality: func() serve.QualityReport {
			return serve.QualityReport{QualityStats: s.Workspace.QualityStats()}
		},
	})
	if err := srv.Start(ctx, addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// EnableTracing starts recording pipeline spans — learn, search,
// execute (with per-candidate children and service calls), and rank —
// into a fresh trace. Tracing off (the default) costs ~nothing.
func (s *System) EnableTracing() { s.Workspace.EnableTracing() }

// DisableTracing stops span recording and discards the trace.
func (s *System) DisableTracing() { s.Workspace.DisableTracing() }

// Tracing reports whether span recording is active.
func (s *System) Tracing() bool { return s.Workspace.Tracing() }

// TraceTo writes the collected spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto.
func (s *System) TraceTo(w io.Writer) error { return s.Workspace.TraceTo(w) }

// Why returns the decision-log lines explaining what happened to
// candidates matching the given substring ("" for the full log) —
// the System.Explain-style accessor over the suggestion pipeline's
// choices.
func (s *System) Why(candidate string) []string { return s.Workspace.Why(candidate) }

// SetSuggestionTimeout bounds each suggestion refresh and query
// execution. Expired executions abort promptly (cancellation is checked
// inside joins, dependent joins, and the Steiner search) and drop the
// affected candidates; 0 removes the deadline.
func (s *System) SetSuggestionTimeout(d time.Duration) {
	s.Workspace.ExecTimeout = d
}

// ShelterSite renders the demo world's TV-news shelter site in the given
// style. It panics if the system has no world.
func (s *System) ShelterSite(style SiteStyle) *Site {
	return s.World.ShelterSite(style)
}

// ContactsSpreadsheet returns the demo world's contact spreadsheet.
func (s *System) ContactsSpreadsheet() *Document {
	return s.World.ContactsSpreadsheet()
}

// OpenBrowser opens the browser application wrapper on a site, connected
// to the workspace's clipboard.
func (s *System) OpenBrowser(site *Site) *Browser {
	return wrappers.NewBrowser(s.Workspace.Clip, site)
}

// OpenSpreadsheet opens the spreadsheet wrapper on a document.
func (s *System) OpenSpreadsheet(doc *Document) *Spreadsheet {
	return wrappers.NewSpreadsheet(s.Workspace.Clip, doc)
}

// SaveSession serializes the system's learned state — imported relations
// (with semantic types and keys), the type library, learned source graph
// edge costs, workspace tabs, and plan-cache counters — as JSON (§1:
// integrations "persistently saved as an integrated, mediated view").
// This is the same snapshot format the session host evicts to.
func (s *System) SaveSession() ([]byte, error) {
	return s.Session.State().Snapshot()
}

// LoadSession restores a saved session into this system: relations and
// types are merged into the catalog/library, associations re-discovered,
// learned edge costs re-attached, workspace tabs replayed, and cache
// counters carried over. Services are not serialized — register them
// before loading.
func (s *System) LoadSession(data []byte) error {
	return s.Session.State().Restore(data)
}

// RenderMetrics renders a MetricsSnapshot as an aligned human-readable
// report (counters, gauges, then histograms with p50/p95/p99).
var RenderMetrics = workspace.RenderMetrics

// RenderSLO renders an SLOStatus as an aligned human-readable report
// (the REPL's :slo command).
var RenderSLO = workspace.RenderSLO

// RenderQuality renders a QualityStats as an aligned human-readable
// report (the REPL's :quality command).
var RenderQuality = workspace.RenderQuality

// RenderIncident renders a captured incident bundle as a human-readable
// post-mortem: the trigger, runtime state, the causal timeline with
// degraded spans flagged, per-session attribution, and counter deltas
// (the REPL's :incidents command and scpbench -analyze-incident).
var RenderIncident = flight.RenderTimeline

// ReadIncidentBundle loads an incident bundle from a JSON file written
// by the flight recorder's incident dir.
var ReadIncidentBundle = flight.ReadBundle

// Export helpers (the §8 "export to common application formats").
var (
	// XML renders a relation as XML.
	XML = export.XML
	// CSV renders a relation as CSV with a header row.
	CSV = export.CSV
	// GeoJSON renders geo-tagged rows as a FeatureCollection.
	GeoJSON = export.GeoJSON
	// KML renders geo-tagged rows as Google-Maps-compatible KML.
	KML = export.KML
)
