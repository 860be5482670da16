// Package query is the statement-snapshot fixture's executor: two
// snapshots reached from runProfiled (the findings, one direct and one
// through a helper) and one from the stats verb, which dispatches
// outside the statement path (no finding).
package query

import (
	"statdb/internal/core"
	"statdb/internal/obs"
)

// Executor runs statements.
type Executor struct {
	DBMS *core.DBMS
	reg  *obs.Registry
}

// dispatch routes a statement: stats snapshots the system, everything
// else runs profiled.
func (e *Executor) dispatch(stats bool) {
	if stats {
		_ = e.DBMS.Metrics()
		return
	}
	e.runProfiled()
}

// runProfiled is the per-statement entry point.
func (e *Executor) runProfiled() {
	before := e.DBMS.Metrics()
	e.logQuery(before)
}

// logQuery diffs a second snapshot against the first.
func (e *Executor) logQuery(before obs.Snapshot) {
	after := e.reg.Snapshot()
	_ = after.Counters["hits"] - before.Counters["hits"]
}
