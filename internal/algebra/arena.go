package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
)

// kernelArena is the pattern operator's allocation recycler (see
// DESIGN.md §3.2). Instead of heap-allocating run nodes, binding
// slices and Match records per event, the kernel recycles them
// through free lists backed by chunked slabs:
//
//   - run nodes are carved from fixed-size chunks; a chunk is never
//     reallocated, so node pointers stay valid for the operator's
//     lifetime, and retired nodes return to a free list;
//   - bindings are fixed-stride regions (stride = the query's slot
//     count) carved from chunked flat backing arrays. A region's
//     lifetime follows its Match: released back to the free list
//     when the match is rejected or the caller returns emitted
//     matches via Pattern.Release;
//   - Match and pendingMatch records recycle the same way.
//
// In steady state — free lists warm — run extension performs no heap
// allocation at all; growth allocates one chunk per chunkSize
// records, amortizing to well under one allocation per operation.
//
// The arena is single-goroutine, like the operator that owns it.
type kernelArena struct {
	stride int // binding slots per region

	bindChunk []*event.Event // current flat backing slab
	bindUsed  int
	bindFree  [][]*event.Event

	matchFree  []*Match
	pendFree   []*pendingMatch
	bucketFree []*negBucket

	// Run nodes carve from chunked slabs (pointer-stable,
	// generation-stamped on reuse); predecessor lists and run buckets
	// recycle whole backing slices.
	nodeChunk    []runNode
	nodeUsed     int
	nodeFree     []*runNode
	predListFree [][]predRef
	runBktFree   []*runBucket

	// chunks counts slab allocations (node and binding chunks) —
	// the arena's growth, surfaced by the telemetry layer as the
	// per-operator occupancy signal: a steady state allocates no new
	// chunks, so the counter flat-lines once the free lists warm up.
	chunks int
}

// chunkSize is the number of records (or binding regions) carved from
// one slab allocation.
const chunkSize = 256

func newKernelArena(stride int) *kernelArena {
	return &kernelArena{stride: stride}
}

// getBinding returns a zeroed binding region of stride slots. The
// region is capacity-capped so an accidental append can never bleed
// into a neighboring region.
func (a *kernelArena) getBinding() []*event.Event {
	if n := len(a.bindFree); n > 0 {
		b := a.bindFree[n-1]
		a.bindFree = a.bindFree[:n-1]
		for i := range b {
			b[i] = nil
		}
		return b
	}
	if a.bindUsed+a.stride > len(a.bindChunk) {
		a.bindChunk = make([]*event.Event, a.stride*chunkSize)
		a.bindUsed = 0
		a.chunks++
	}
	b := a.bindChunk[a.bindUsed : a.bindUsed+a.stride : a.bindUsed+a.stride]
	a.bindUsed += a.stride
	return b
}

// putBinding returns a region to the free list. The stale event
// pointers are cleared on reuse, not here, so a released Match's
// binding stays readable until the region actually recycles.
func (a *kernelArena) putBinding(b []*event.Event) {
	if b == nil {
		return
	}
	a.bindFree = append(a.bindFree, b)
}

// getMatch returns a recycled or fresh Match.
func (a *kernelArena) getMatch() *Match {
	if n := len(a.matchFree); n > 0 {
		m := a.matchFree[n-1]
		a.matchFree = a.matchFree[:n-1]
		return m
	}
	return &Match{}
}

// putMatch retires a Match and its binding region.
func (a *kernelArena) putMatch(m *Match) {
	a.putBinding(m.Binding)
	m.Binding = nil
	a.matchFree = append(a.matchFree, m)
}

// getPending returns a recycled or fresh pendingMatch record.
func (a *kernelArena) getPending() *pendingMatch {
	if n := len(a.pendFree); n > 0 {
		pm := a.pendFree[n-1]
		a.pendFree = a.pendFree[:n-1]
		*pm = pendingMatch{}
		return pm
	}
	return &pendingMatch{}
}

// putPending retires a pendingMatch record (not its Match — the match
// either went to the caller or was retired separately).
func (a *kernelArena) putPending(pm *pendingMatch) {
	pm.m = nil
	a.pendFree = append(a.pendFree, pm)
}

// getBucket returns an empty negation-index bucket. A recycled bucket
// keeps its event slice capacity, so a key that cycles between live
// and empty stops allocating once the free list warms. Fresh buckets
// start with room for a few events: the append-growth chain
// (1→2→4→8) otherwise dominates the allocation profile of
// negation-heavy workloads, where every join key mints a bucket.
func (a *kernelArena) getBucket() *negBucket {
	if n := len(a.bucketFree); n > 0 {
		b := a.bucketFree[n-1]
		a.bucketFree = a.bucketFree[:n-1]
		return b
	}
	return &negBucket{evs: make([]*event.Event, 0, 8)}
}

// putBucket retires a bucket, dropping its event references but
// keeping the slice capacity for reuse.
func (a *kernelArena) putBucket(b *negBucket) {
	for i := range b.evs {
		b.evs[i] = nil
	}
	b.evs = b.evs[:0]
	b.head = 0
	a.bucketFree = append(a.bucketFree, b)
}

// getNode returns a cleared run node. Its generation stamp survives
// recycling (putNode bumps it), which is what lets stale predecessor
// references detect that their target was reclaimed.
func (a *kernelArena) getNode() *runNode {
	if n := len(a.nodeFree); n > 0 {
		nd := a.nodeFree[n-1]
		a.nodeFree = a.nodeFree[:n-1]
		return nd
	}
	if a.nodeUsed == len(a.nodeChunk) {
		a.nodeChunk = make([]runNode, chunkSize)
		a.nodeUsed = 0
		a.chunks++
	}
	nd := &a.nodeChunk[a.nodeUsed]
	a.nodeUsed++
	return nd
}

// putNode retires a run node. The caller already returned its
// predecessor list (freeNode); everything else is cleared here and
// the generation advances so dangling refs go inert.
func (a *kernelArena) putNode(nd *runNode) {
	nd.ev = nil
	nd.pb = nil
	nd.pbGen = 0
	nd.predLo = 0
	nd.predHi = 0
	nd.maxFS = 0
	nd.gen++
	a.nodeFree = append(a.nodeFree, nd)
}

// getPredList returns an empty predecessor list, reusing a retired
// backing array when one is available.
func (a *kernelArena) getPredList() []predRef {
	if n := len(a.predListFree); n > 0 {
		l := a.predListFree[n-1]
		a.predListFree = a.predListFree[:n-1]
		return l
	}
	return nil
}

// putPredList retires a predecessor list, dropping its node
// references but keeping the capacity.
func (a *kernelArena) putPredList(l []predRef) {
	for i := range l {
		l[i] = predRef{}
	}
	a.predListFree = append(a.predListFree, l[:0])
}

// getRunBucket returns an empty run bucket. Like run nodes, buckets
// keep their generation stamp across recycling so ranges into an
// evicted bucket resolve to nothing.
func (a *kernelArena) getRunBucket() *runBucket {
	if n := len(a.runBktFree); n > 0 {
		b := a.runBktFree[n-1]
		a.runBktFree = a.runBktFree[:n-1]
		return b
	}
	return &runBucket{chainMax: minTime}
}

// putRunBucket retires an empty run bucket (its runs were already
// reclaimed) and bumps its generation.
func (a *kernelArena) putRunBucket(b *runBucket) {
	for i := range b.nodes {
		b.nodes[i] = nil
	}
	b.nodes = b.nodes[:0]
	b.head = 0
	b.base = 0
	b.chainMax = minTime
	b.gen++
	a.runBktFree = append(a.runBktFree, b)
}
