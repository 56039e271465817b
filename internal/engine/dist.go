package engine

// DistExecutor is the surface a distributed coordinator serves: the
// full executor contract — reads, writes, and epoch, so requests flow
// through the same caches, routing, and retry loops as in process —
// plus the transport-health counters. internal/dist's Coordinator
// satisfies it; the engine package deliberately does not import dist
// (persist imports engine, dist imports persist), so the dependency
// points this way.
type DistExecutor interface {
	executor
	LegCount() int
	Replicas() int
	DistCounters() (retries, hedges, degraded, legErrs, failovers, shed int64)
}

// FromDist wraps a distributed coordinator in the serving layer. All
// read paths (query/stats/DFS caches, streamed routing, ranked epoch
// retries) behave exactly as over an in-process executor — cache
// entries are tagged with the coordinator's epoch, so entries minted
// before a distributed write self-invalidate. Writes route to the
// coordinator's broadcast path instead of a local live layer.
func FromDist(d DistExecutor, cfg Config) *Engine {
	return newServing(d, cfg)
}

// Dist returns the distributed coordinator, or nil for an in-process
// engine.
func (e *Engine) Dist() DistExecutor {
	d, _ := e.exec.(DistExecutor)
	return d
}
