// Package obs is the statement-snapshot fixture's metrics surface.
package obs

// Snapshot is a merged copy of a registry.
type Snapshot struct{ Counters map[string]int64 }

// Registry holds instruments.
type Registry struct{}

// Snapshot copies every instrument: the system-wide read the rule keeps
// off the statement path.
func (r *Registry) Snapshot() Snapshot { return Snapshot{} }
