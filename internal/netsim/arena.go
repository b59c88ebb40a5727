package netsim

import "tfrc/internal/sim"

// netsimArenaID is this package's slot in every scheduler's arena table.
var netsimArenaID = sim.NewArenaID()

// arena is the scheduler-attached pool of netsim's per-scenario objects,
// reclaimed wholesale by ResetArena at the next Scheduler.Reset: a worker
// that pins a scheduler therefore rebuilds each sweep cell out of the
// previous cell's entire working set — networks with their nodes, links
// and queues, topologies, monitors — without touching the allocator.
type arena struct {
	networks  sim.Slab[Network]
	nodes     sim.Slab[Node]
	links     sim.Slab[Link]
	dropTails sim.Slab[DropTail]
	reds      sim.Slab[RED]
	topos     sim.Slab[Topology]
	dumbbells sim.Slab[Dumbbell]
	flowMons  sim.Slab[FlowMonitor]
	queueMons sim.Slab[QueueMonitor]
	utilMons  sim.Slab[UtilizationMonitor]
}

// ResetArena implements sim.Arena: every object ever handed out becomes
// construction stock again.
func (a *arena) ResetArena() {
	a.networks.Reset()
	a.nodes.Reset()
	a.links.Reset()
	a.dropTails.Reset()
	a.reds.Reset()
	a.topos.Reset()
	a.dumbbells.Reset()
	a.flowMons.Reset()
	a.queueMons.Reset()
	a.utilMons.Reset()
}

func arenaOf(s *sim.Scheduler) *arena {
	return s.Arena(netsimArenaID, func() sim.Arena { return &arena{} }).(*arena)
}
