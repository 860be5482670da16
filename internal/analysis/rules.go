package analysis

// Rule is one machine-checked contract. Check walks the tree and
// reports violations through rep; it must be deterministic (findings
// are sorted afterwards, but messages and positions must not depend on
// map order or environment).
type Rule interface {
	// ID is the short kebab-case identifier used in findings and
	// //lint:allow directives.
	ID() string
	// Doc is a one-line statement of the contract the rule encodes.
	Doc() string
	Check(t *Tree, rep *Reporter)
}

// DefaultRules returns the repo's contract rules in a fixed order.
func DefaultRules() []Rule {
	return []Rule{
		ObsConfine{},
		NoPanic{},
		Determinism{},
		SentinelErrors{},
		GoroutineConfine{},
		MetricNames{},
		SpanBalance{},
		LockConfine{},
		ChargeTrack{},
		ErrorFlow{},
		StatementSnapshot{},
	}
}
