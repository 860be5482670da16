// Package core is the statement-snapshot fixture's DBMS.
package core

import "statdb/internal/obs"

// DBMS owns the system registry.
type DBMS struct {
	reg *obs.Registry
}

// Metrics merges every registry into one snapshot.
func (d *DBMS) Metrics() obs.Snapshot { return d.reg.Snapshot() }

// Registry exposes the system registry.
func (d *DBMS) Registry() *obs.Registry { return d.reg }
