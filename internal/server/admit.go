package server

import "sync/atomic"

// Cost-aware admission control. The admission semaphore (Server.sem)
// bounds how many queries evaluate at once; this controller governs
// the queue in front of it. Instead of letting every excess query camp
// on the semaphore until its deadline — burning the client's budget on
// a wait that cannot succeed — the controller watches the queue depth
// and sheds:
//
//  1. Heavily backed up (depth > floorAt): expensive queries (planner
//     cost estimate over the shed threshold) are shed outright — an
//     immediate 503, no deadline burn.
//  2. Full (depth > maxQueue): everything is shed immediately.
//
// Every admitted query runs exactly as it would uncontended; shed
// queries fail fast so the client can back off or retry against a
// replica. The depth gauge counts queries between arrival and semaphore
// acquisition, so it is zero whenever the worker pool keeps up and
// admission costs one atomic add per request.
type admission struct {
	// maxQueue is the shed-everything bound on the waiting count.
	maxQueue int
	// floorAt is the heavy-overload bound: above it expensive queries
	// are shed.
	floorAt int

	// waiting counts queries that arrived but have not yet acquired
	// the admission semaphore (includes the one currently deciding).
	waiting atomic.Int64
}

// newAdmission sizes the controller from the queue bound: expensive
// queries shed from half the queue.
func newAdmission(maxQueue int) *admission {
	return &admission{maxQueue: maxQueue, floorAt: max(maxQueue/2, 2)}
}

// shed decides one arriving query's fate: true sheds it, false admits
// it. depth is the waiting count including this query; expensive marks
// a planner cost estimate over the server's shed threshold.
func (a *admission) shed(depth int, expensive bool) bool {
	return depth > a.maxQueue || expensive && depth > a.floorAt
}
