package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Severity of an event-log record.
const (
	SevInfo  = "info"
	SevWarn  = "warn"
	SevError = "error"
)

// QueryRecord is the per-query payload of an event: what ran, what it
// cost in the cost model's own units, and which execution strategies
// the system chose — the operational counterpart of the paper's update
// history (§3.3), kept per statement instead of per file. Every field
// below Query and the session is the statement's own: NewQueryRecord
// derives them from its folded span tree, never from system-wide
// counters, so other sessions' work cannot leak into a record.
type QueryRecord struct {
	Query      string `json:"query"`                 // statement text as typed
	Session    string `json:"session,omitempty"`     // originating simulated session, when one is attached
	SessionSeq int64  `json:"session_seq,omitempty"` // 1-based statement number within that session
	TotalTicks int64  `json:"total_ticks"`           // root span total
	Rows       int64  `json:"rows,omitempty"`        // sum of the rows attrs on "scan" spans
	Pages      int64  `json:"pages,omitempty"`       // buffer-pool page reads charged to the statement's budget
	CacheHits  int64  `json:"cache_hits,omitempty"`  // NoteHit on the spans (summary.scalar outcome=hit, Lookup, Register)
	CacheMiss  int64  `json:"cache_miss,omitempty"`  // NoteMiss + NoteStaleRefill on the spans (outcome=miss|stale-refill, StoreCustom, Register)
	Strategy   string `json:"strategy,omitempty"`    // incremental | recompute | cached, from the maintenance and outcome notes
	Engine     string `json:"engine,omitempty"`      // serial | parallel, from the engine notes (fold engine=serial|parallel, pool runs)
	Budget     string `json:"budget,omitempty"`      // budget breach description, if any
	Err        string `json:"err,omitempty"`         // statement error, if any
	// Slow-query capture: a statement breaching the slow-ticks threshold
	// or its budget gets its rendered top-sites profile and explain tree
	// attached, so the incident record alone answers "where did the
	// ticks go" without rerunning the query.
	Profile string `json:"profile,omitempty"`
	Explain string `json:"explain,omitempty"`
}

// NewQueryRecord builds the record of one statement from its folded
// profile: ticks from the root total, rows from the scan sites, and the
// cache, strategy and engine facts from the decision notes its layers
// left on its spans. Strategy ranks maintenance over computation over
// cache answers: an update that folded deltas is "incremental" even if
// it also recomputed an invalidated entry, and any computation from the
// data outranks hits. A run-aware fold (engine=runs) notes no engine,
// so such a statement reports none.
func NewQueryRecord(query string, p *Profile) *QueryRecord {
	n := &p.Notes
	rec := &QueryRecord{
		Query:      query,
		TotalTicks: p.Ticks,
		Rows:       p.SiteRows("scan"),
		CacheHits:  n[NoteHit],
		CacheMiss:  n[NoteMiss] + n[NoteStaleRefill],
	}
	switch {
	case n[NoteIncremental] > 0 || n[NoteSlide] > 0:
		rec.Strategy = "incremental"
	case n[NoteRecompute] > 0 || n[NoteMiss] > 0:
		rec.Strategy = "recompute"
	case n[NoteHit] > 0:
		rec.Strategy = "cached"
	}
	switch {
	case n[NoteParallel] > 0:
		rec.Engine = "parallel"
	case n[NoteSerial] > 0:
		rec.Engine = "serial"
	}
	return rec
}

// Event is one JSONL record. Tick is virtual time (the statement's
// position in cost-model ticks consumed so far), never wall clock, so
// a deterministic workload produces a byte-identical log.
type Event struct {
	Seq   int64        `json:"seq"`
	Tick  int64        `json:"tick"`
	Sev   string       `json:"sev"`
	Kind  string       `json:"kind"` // "query" | "serve" | ...
	Msg   string       `json:"msg,omitempty"`
	Query *QueryRecord `json:"query,omitempty"`
}

// EventLogConfig tunes an EventLog. The zero value logs everything to W
// with no rotation.
type EventLogConfig struct {
	W io.Writer // destination; ignored when Path is set

	// Path, when set, appends to the named file and enables size-bounded
	// rotation: when the file would exceed MaxBytes the current file is
	// renamed to Path+".1" (replacing any previous one) and a fresh file
	// is started — at most two generations on disk.
	Path     string
	MaxBytes int64 // rotation threshold; 0 = never rotate

	// SlowTicks marks any query whose root total meets or exceeds it as
	// slow (severity warn). 0 disables the threshold.
	SlowTicks int64

	// SampleEvery head-samples routine records: only every Nth
	// info-severity query record is written (1 or 0 = keep all). Slow,
	// budget-breaching and erroring queries are never dropped — sampling
	// exists to bound volume, not to hide incidents.
	SampleEvery int64
}

// EventLog writes structured events as JSONL. Sequence numbers are
// assigned by the log itself, so records are totally ordered even when
// several executors share one log. A nil EventLog discards events.
type EventLog struct {
	mu   sync.Mutex
	cfg  EventLogConfig
	w    io.Writer
	f    *os.File
	size int64
	seq  int64
	seen int64 // info-severity query records considered for sampling
}

// NewEventLog opens an event log. With cfg.Path set the file is opened
// in append mode (its current size counts toward rotation); otherwise
// records go to cfg.W (io.Discard when both are unset).
func NewEventLog(cfg EventLogConfig) (*EventLog, error) {
	l := &EventLog{cfg: cfg}
	if cfg.Path != "" {
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("obs: open event log: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: stat event log: %w", err)
		}
		l.f = f
		l.w = f
		l.size = st.Size()
		return l, nil
	}
	if cfg.W != nil {
		l.w = cfg.W
	} else {
		l.w = io.Discard
	}
	return l, nil
}

// SlowTicks reports the configured slow-query threshold (0 when
// disabled or the log is nil) — executors consult it to decide whether
// to attach a profile capture before logging.
func (l *EventLog) SlowTicks() int64 {
	if l == nil {
		return 0
	}
	return l.cfg.SlowTicks
}

// Close closes the underlying file, if any.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	l.w = io.Discard
	return err
}

// Log writes one event, filling in Seq and deriving severity when
// e.Sev is empty: error if the record carries an error, warn if it
// breached its budget or met the slow-query threshold, info otherwise.
// Info-severity query records are head-sampled per SampleEvery.
func (l *EventLog) Log(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Sev == "" {
		e.Sev = SevInfo
		if q := e.Query; q != nil {
			switch {
			case q.Err != "":
				e.Sev = SevError
			case q.Budget != "":
				e.Sev = SevWarn
			case l.cfg.SlowTicks > 0 && q.TotalTicks >= l.cfg.SlowTicks:
				e.Sev = SevWarn
			}
		}
	}
	if e.Sev == SevInfo && e.Query != nil && l.cfg.SampleEvery > 1 {
		l.seen++
		if (l.seen-1)%l.cfg.SampleEvery != 0 {
			return
		}
	}
	l.seq++
	e.Seq = l.seq
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.rotateLocked(int64(len(line)))
	_, _ = l.w.Write(line)
	l.size += int64(len(line))
}

// rotateLocked rotates the backing file if writing n more bytes would
// cross the threshold. Callers hold l.mu.
func (l *EventLog) rotateLocked(n int64) {
	if l.f == nil || l.cfg.MaxBytes <= 0 || l.size+n <= l.cfg.MaxBytes || l.size == 0 {
		return
	}
	l.f.Close()
	_ = os.Rename(l.cfg.Path, l.cfg.Path+".1")
	f, err := os.OpenFile(l.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Rotation failed; drop to discard rather than crash the server
		// over its own telemetry.
		l.f = nil
		l.w = io.Discard
		l.size = 0
		return
	}
	l.f = f
	l.w = f
	l.size = 0
}
