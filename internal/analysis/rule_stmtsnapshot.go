package analysis

// StatementSnapshot (R11) keeps system-wide metric snapshots off the
// statement path. A statement's event record is built from its own
// span tree (obs.NewQueryRecord); a core.DBMS.Metrics or
// obs.Registry.Snapshot call reachable from the executor's per-statement
// entry point would merge every registry on every statement — the cost
// that once dominated a cached compute — and, once statements run
// concurrently, would count other sessions' work as this statement's.
// Verbs that report system metrics (`stats`) dispatch outside
// runProfiled and stay free to snapshot.
type StatementSnapshot struct{}

// statementRoot is the per-statement entry point every profiled verb
// runs under.
var statementRoot = FuncKey{Pkg: "internal/query", Recv: "Executor", Name: "runProfiled"}

// snapshotAPIs are the system-wide snapshot entry points.
var snapshotAPIs = map[FuncKey]bool{
	{Pkg: "internal/core", Recv: "DBMS", Name: "Metrics"}:     true,
	{Pkg: "internal/obs", Recv: "Registry", Name: "Snapshot"}: true,
}

// ID implements Rule.
func (StatementSnapshot) ID() string { return "statement-snapshot" }

// Doc implements Rule.
func (StatementSnapshot) Doc() string {
	return "core.DBMS.Metrics and obs.Registry.Snapshot are unreachable from query.Executor.runProfiled: statement records come from the statement's spans"
}

// Check implements Rule. Reachability stops at the snapshot APIs, so
// each violation is reported once, at the call that reaches one, not
// again at every snapshot the API itself takes.
func (StatementSnapshot) Check(t *Tree, rep *Reporter) {
	g := t.Graph()
	if g.Funcs[statementRoot] == nil {
		return
	}
	reachable := g.ReachableUntil([]FuncKey{statementRoot}, snapshotAPIs)
	for _, key := range g.SortedFuncs() {
		if !reachable[key] || snapshotAPIs[key] {
			continue
		}
		for _, cs := range g.Funcs[key].Calls {
			if cs.Resolved && snapshotAPIs[cs.Callee] {
				rep.Reportf("statement-snapshot", cs.Call.Pos(),
					"%s calls %s on the statement path (reachable from %s); build per-statement facts from the statement's spans",
					key, cs.Callee, statementRoot)
			}
		}
	}
}
