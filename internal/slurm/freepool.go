package slurm

import (
	"math/bits"

	"repro/internal/platform"
)

// The indexed free pool. The seed implementation kept the free nodes as
// one index-sorted slice: every freeFor was a class-filtered scan, every
// pickNodes re-sorted the whole pool under the affinity comparator, and
// every release re-sorted the slice. At thousand-node fleet sizes those
// O(N log N) passes dominate the simulation. The pool below keeps the
// same information factored by machine class: per-class bitmaps of free
// node indices, split into awake, booting and sleeping parts. Class
// counts make freeFor a scan of the (nearly always ≤ 3) classes,
// membership updates are O(1) bit flips, and an affinity ordering
// becomes a k-way merge of index-ordered bitmaps that reproduces the
// affinity sort's order bit for bit — see Controller.pickNodes.
//
// A version counter increments on every mutation that can change a
// placement answer. The controller caches one ordering per placement
// variant at the current version, merged only as deep as asked, and
// answers every width with a prefix of it; the orderings' prefix
// aggregates price a candidate width in one slot instead of a walk over
// its nodes (Controller.backfillEnd).

// bitset is a bitmap over node indices.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// classPool tracks one machine class's free nodes. Within a class every
// node shares the power profile, so the only intra-class affinity keys
// left are awake-before-booting-before-sleeping and index order —
// exactly what the three bitmaps encode. The booting half holds free
// nodes still inside a wake/boot transition (wake-ahead, a provision in
// flight, or a release inside the wake window): allocatable, but an
// allocation pays the remaining transition, never the full rung again.
type classPool struct {
	class    string
	epw      float64 // P0 joules per unit of reference work
	speed    float64 // P0 speed (the anchor-matching key)
	awake    bitset  // free, powered on
	booting  bitset  // free, mid wake/boot transition
	asleep   bitset  // free, in a sleep state
	nAwake   int
	nBooting int
	nAsleep  int
}

func (cp *classPool) count() int { return cp.nAwake + cp.nBooting + cp.nAsleep }

// parts is the number of bitmaps a class pool splits its nodes into.
const parts = 3

// part returns the pool's bitmap of affinity rank h: awake first (no
// launch delay), then mid-boot nodes (the remaining transition is at
// most a full wake), sleeping last.
func (cp *classPool) part(h int) bitset {
	switch h {
	case 0:
		return cp.awake
	case 1:
		return cp.booting
	}
	return cp.asleep
}

// freePool is the controller's indexed view of unallocated nodes.
type freePool struct {
	nodes   []*platform.Node // all cluster nodes, by index
	classes []*classPool     // first-seen node-index order
	byNode  []*classPool     // node index -> its class pool
	total   int
	version uint64
	ops     int // membership mutations (Stats.FreePoolOps)
}

// newFreePool builds the pool with every node free and awake (nodes
// start powered-on idle).
func newFreePool(nodes []*platform.Node) *freePool {
	p := &freePool{
		nodes:  nodes,
		byNode: make([]*classPool, len(nodes)),
	}
	for _, nd := range nodes {
		cp := p.class(nd.Class())
		if cp == nil {
			cp = &classPool{
				class:   nd.Class(),
				epw:     nd.EnergyPerWork(),
				speed:   nd.Speed(),
				awake:   newBitset(len(nodes)),
				booting: newBitset(len(nodes)),
				asleep:  newBitset(len(nodes)),
			}
			p.classes = append(p.classes, cp)
		}
		p.byNode[nd.Index] = cp
		cp.awake.set(nd.Index)
		cp.nAwake++
		p.total++
	}
	return p
}

// bump invalidates cached placement answers.
func (p *freePool) bump() { p.version++ }

// contains reports whether node index i is free.
func (p *freePool) contains(i int) bool {
	cp := p.byNode[i]
	return cp.awake.has(i) || cp.booting.has(i) || cp.asleep.has(i)
}

// add returns a node to the pool, awake (releases and repairs hand back
// powered-on nodes).
func (p *freePool) add(i int) {
	cp := p.byNode[i]
	if p.contains(i) {
		return
	}
	cp.awake.set(i)
	cp.nAwake++
	p.total++
	p.ops++
	p.bump()
}

// addBooting returns a node to the pool mid wake/boot transition (a
// release inside the node's wake window, or a provision joining the
// fleet before its boot completes).
func (p *freePool) addBooting(i int) {
	cp := p.byNode[i]
	if p.contains(i) {
		return
	}
	cp.booting.set(i)
	cp.nBooting++
	p.total++
	p.ops++
	p.bump()
}

// remove takes a node out of the pool (allocation, crash, failed
// provision boot or decommission).
func (p *freePool) remove(i int) {
	cp := p.byNode[i]
	switch {
	case cp.awake.has(i):
		cp.awake.clear(i)
		cp.nAwake--
	case cp.booting.has(i):
		cp.booting.clear(i)
		cp.nBooting--
	case cp.asleep.has(i):
		cp.asleep.clear(i)
		cp.nAsleep--
	default:
		return
	}
	p.total--
	p.ops++
	p.bump()
}

// markAsleep moves a free node to its class's sleeping half (the idle
// timeout fired and the accountant accepted the transition).
func (p *freePool) markAsleep(i int) {
	cp := p.byNode[i]
	if !cp.awake.has(i) {
		return
	}
	cp.awake.clear(i)
	cp.nAwake--
	cp.asleep.set(i)
	cp.nAsleep++
	p.ops++
	p.bump()
}

// markBooting moves a free sleeping node to its class's booting half (a
// wake-ahead pre-boot started).
func (p *freePool) markBooting(i int) {
	cp := p.byNode[i]
	if !cp.asleep.has(i) {
		return
	}
	cp.asleep.clear(i)
	cp.nAsleep--
	cp.booting.set(i)
	cp.nBooting++
	p.ops++
	p.bump()
}

// markAwake moves a free booting node to its class's awake half (the
// boot transition completed while the node stayed free).
func (p *freePool) markAwake(i int) {
	cp := p.byNode[i]
	if !cp.booting.has(i) {
		return
	}
	cp.booting.clear(i)
	cp.nBooting--
	cp.awake.set(i)
	cp.nAwake++
	p.ops++
	p.bump()
}

// class returns the pool of the named machine class, nil when the
// fleet has none. Fleets carry a handful of classes, so a scan beats a
// string-keyed map.
func (p *freePool) class(name string) *classPool {
	for _, cp := range p.classes {
		if cp.class == name {
			return cp
		}
	}
	return nil
}

// eligibleClasses returns the class pools job j may draw from.
func (p *freePool) eligibleClasses(j *Job) []*classPool {
	if j == nil || j.ReqClass == "" {
		return p.classes
	}
	for i, cp := range p.classes {
		if cp.class == j.ReqClass {
			return p.classes[i : i+1]
		}
	}
	return nil
}

// countFor returns how many free nodes job j may be allocated.
func (p *freePool) countFor(j *Job) int {
	if j == nil || j.ReqClass == "" {
		return p.total
	}
	if cp := p.class(j.ReqClass); cp != nil {
		return cp.count()
	}
	return 0
}

// appendMerged appends to out, in ascending node-index order, the nodes
// of the given bitmaps (one per class of an affinity tier) from node
// index from on, stopping at capacity n. Word-wise ORs make the k-way
// merge a single bit scan. It returns the index to resume from: the next
// unmerged node's, or the bitmaps' length once they are exhausted.
func (p *freePool) appendMerged(out []*platform.Node, sets []bitset, from, n int) ([]*platform.Node, int) {
	words := len(sets[0])
	for w := from >> 6; w < words; w++ {
		var merged uint64
		for _, s := range sets {
			merged |= s[w]
		}
		if w == from>>6 {
			merged &^= 1<<(uint(from)&63) - 1
		}
		for ; merged != 0; merged &= merged - 1 {
			i := w<<6 + bits.TrailingZeros64(merged)
			if len(out) == n {
				return out, i
			}
			out = append(out, p.nodes[i])
		}
	}
	return out, words << 6
}
