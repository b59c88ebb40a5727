package traffic

import "tfrc/internal/sim"

var trafficArenaID = sim.NewArenaID()

// genArena pools the background-traffic generators per scheduler. They
// all live for a whole scenario, so ResetArena reclaims everything when
// the scheduler is recycled for the next sweep cell.
type genArena struct {
	onoffs sim.Slab[OnOff]
	cbrs   sim.Slab[CBR]
	sinks  sim.Slab[Sink]
	mice   sim.Slab[Mice]
}

// ResetArena implements sim.Arena.
func (a *genArena) ResetArena() {
	a.onoffs.Reset()
	a.cbrs.Reset()
	a.sinks.Reset()
	a.mice.Reset()
}

func arenaOf(s *sim.Scheduler) *genArena {
	return s.Arena(trafficArenaID, func() sim.Arena { return &genArena{} }).(*genArena)
}
