package bta

import (
	"fmt"
	"sort"
)

// Partition is a contiguous inclusive range [Lo, Hi] of diagonal-block
// indices owned by one rank of the time-domain decomposition (§IV-C).
type Partition struct {
	Lo, Hi int
}

// Size returns the number of blocks in the partition.
func (p Partition) Size() int { return p.Hi - p.Lo + 1 }

// PartitionBlocks splits n diagonal blocks across p ranks. The load-balance
// factor lb ≥ 1 assigns the first partition lb× the blocks of the others,
// compensating for the cheaper one-sided factorization it runs (§V-C: the
// nested-dissection scheme makes non-first partitions run a costlier
// two-sided elimination). lb = 1 gives an even split.
//
// Constraints: p ≥ 1, and middle partitions need at least 2 blocks (their
// two boundary blocks), so n ≥ 2p−2 is required for p ≥ 2.
func PartitionBlocks(n, p int, lb float64) ([]Partition, error) {
	if p < 1 {
		return nil, fmt.Errorf("bta: partition count %d < 1", p)
	}
	if p == 1 {
		return []Partition{{0, n - 1}}, nil
	}
	if lb < 1 {
		return nil, fmt.Errorf("bta: load balance factor %v < 1", lb)
	}
	minNeeded := 1 + 2*(p-2) + 1
	if p == 2 {
		minNeeded = 2
	}
	if n < minNeeded {
		return nil, fmt.Errorf("bta: %d blocks cannot be split over %d partitions (need ≥ %d)", n, p, minNeeded)
	}
	// Target sizes: s0 = lb·x, others x, with s0 + (p−1)·x = n.
	x := float64(n) / (lb + float64(p-1))
	s0 := int(lb*x + 0.5)
	if s0 < 1 {
		s0 = 1
	}
	// Remaining blocks split as evenly as possible with middle minimum 2.
	rest := n - s0
	minRest := 2*(p-2) + 1
	if p == 2 {
		minRest = 1
	}
	if rest < minRest {
		s0 = n - minRest
		rest = minRest
	}
	sizes := make([]int, p)
	sizes[0] = s0
	base := rest / (p - 1)
	extra := rest % (p - 1)
	for i := 1; i < p; i++ {
		sizes[i] = base
		if i <= extra {
			sizes[i]++
		}
	}
	// Enforce middle minimum of 2 by stealing from the largest partitions.
	for i := 1; i < p-1; i++ {
		for sizes[i] < 2 {
			donor := maxIdx(sizes, i)
			if sizes[donor] <= 2 {
				return nil, fmt.Errorf("bta: cannot satisfy middle-partition minimum with n=%d p=%d lb=%v", n, p, lb)
			}
			sizes[donor]--
			sizes[i]++
		}
	}
	if sizes[p-1] < 1 {
		return nil, fmt.Errorf("bta: last partition empty with n=%d p=%d lb=%v", n, p, lb)
	}
	parts := make([]Partition, p)
	lo := 0
	for i, s := range sizes {
		parts[i] = Partition{Lo: lo, Hi: lo + s - 1}
		lo += s
	}
	return parts, nil
}

// HybridPartition splits n diagonal blocks across the nodes of the hybrid
// two-level topology, applying the §V-C load-balance factor per level.
// perNode[i] is node i's stream count (owned partitions, which the node
// sweeps concurrently); stream counts may differ across nodes. The global
// partition list comes back in node order, node ranges contiguous.
//
// Balance model: every two-sided partition costs ~1 unit per block while
// the global-first partition (one-sided elimination, no top-boundary
// updates) costs ~1/lb, so its target size is lb× the others — exactly
// PartitionBlocks' policy, applied here at both levels. Because a node's
// streams run concurrently, its makespan is the largest of its partitions'
// costs; giving every two-sided partition the same target size x (and the
// first lb·x) therefore equalizes per-node makespans even when stream
// counts differ — node block shares follow the stream counts, they are not
// the naive n/nodes split.
//
// All-flat layouts (every perNode[i] == 1) reproduce PartitionBlocks
// exactly, bit for bit. Infeasible load-balanced splits degrade to lb = 1
// before failing.
func HybridPartition(n int, perNode []int, lb float64) ([]Partition, error) {
	if len(perNode) == 0 {
		return nil, fmt.Errorf("bta: hybrid partition with no nodes")
	}
	if lb < 1 {
		return nil, fmt.Errorf("bta: load balance factor %v < 1", lb)
	}
	p := 0
	flat := true
	for i, q := range perNode {
		if q < 1 {
			return nil, fmt.Errorf("bta: node %d stream count %d < 1", i, q)
		}
		p += q
		if q != 1 {
			flat = false
		}
	}
	if p == 1 {
		return []Partition{{0, n - 1}}, nil
	}
	if flat {
		// One stream per node: the two levels coincide; defer to the flat
		// splitter so the flat topology stays bit-for-bit (degrading to the
		// even split exactly where the flat callers' lb adjustment did).
		if parts, err := PartitionBlocks(n, p, lb); err == nil {
			return parts, nil
		}
		return PartitionBlocks(n, p, 1)
	}
	parts, err := hybridSplit(n, perNode, p, lb)
	if err != nil && lb > 1 {
		// Tiny block counts can break the load-balanced arithmetic while the
		// even split still fits (mirroring PartitionBlocks' callers).
		parts, err = hybridSplit(n, perNode, p, 1)
	}
	if err != nil {
		// Last resort: the flat splitter's stealing logic handles the
		// degenerate counts; regroup its partitions under the node layout.
		return PartitionBlocks(n, p, 1)
	}
	return parts, nil
}

func hybridSplit(n int, perNode []int, p int, lb float64) ([]Partition, error) {
	// Per-node targets: node 0 carries the one-sided partition (weight lb)
	// plus q₀−1 two-sided streams; other nodes weigh their stream count.
	nodes := len(perNode)
	weights := make([]float64, nodes)
	mins := make([]int, nodes)
	gFirst := 0
	for i, q := range perNode {
		weights[i] = float64(q)
		if i == 0 {
			weights[i] = lb + float64(q-1)
		}
		// Per-node minimum: 2 per globally-middle partition, 1 for the
		// global first/last.
		for j := 0; j < q; j++ {
			g := gFirst + j
			if g == 0 || g == p-1 {
				mins[i]++
			} else {
				mins[i] += 2
			}
		}
		gFirst += q
	}
	nodeSizes, err := splitWeighted(n, weights, mins)
	if err != nil {
		return nil, err
	}
	// Within each node: lb on the global-first partition, even elsewhere,
	// honoring the global first/last/middle minimums.
	parts := make([]Partition, 0, p)
	lo := 0
	g := 0
	for i, q := range perNode {
		w := make([]float64, q)
		m := make([]int, q)
		for j := 0; j < q; j++ {
			w[j] = 1
			if g+j == 0 {
				w[j] = lb
			}
			if g+j == 0 || g+j == p-1 {
				m[j] = 1
			} else {
				m[j] = 2
			}
		}
		sizes, err := splitWeighted(nodeSizes[i], w, m)
		if err != nil {
			return nil, err
		}
		for _, s := range sizes {
			parts = append(parts, Partition{Lo: lo, Hi: lo + s - 1})
			lo += s
		}
		g += q
	}
	return parts, nil
}

// splitWeighted splits n blocks into len(w) contiguous parts with sizes
// proportional to w, each at least mins[i]: floor the ideal shares, hand the
// remainder out by largest fractional part, then enforce the minimums by
// stealing from the largest surplus.
func splitWeighted(n int, w []float64, mins []int) ([]int, error) {
	var tw float64
	minSum := 0
	for i := range w {
		tw += w[i]
		minSum += mins[i]
	}
	if minSum > n {
		return nil, fmt.Errorf("bta: %d blocks cannot satisfy per-partition minimums summing to %d", n, minSum)
	}
	sizes := make([]int, len(w))
	order := make([]int, len(w))
	fracs := make([]float64, len(w))
	rem := n
	for i := range w {
		ideal := float64(n) * w[i] / tw
		sizes[i] = int(ideal)
		fracs[i] = ideal - float64(sizes[i])
		rem -= sizes[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; k < rem; k++ {
		sizes[order[k%len(order)]]++
	}
	for i := range sizes {
		for sizes[i] < mins[i] {
			donor, surplus := -1, 0
			for j := range sizes {
				if j != i && sizes[j]-mins[j] > surplus {
					donor, surplus = j, sizes[j]-mins[j]
				}
			}
			if donor < 0 {
				return nil, fmt.Errorf("bta: cannot satisfy partition minimums (n=%d)", n)
			}
			sizes[donor]--
			sizes[i]++
		}
	}
	return sizes, nil
}

// UniformStreams returns the perNode layout of nodes ranks each running
// perRank streams (the clean ranks × partitions grid).
func UniformStreams(ranks, perRank int) []int {
	if perRank < 1 {
		perRank = 1
	}
	out := make([]int, ranks)
	for i := range out {
		out[i] = perRank
	}
	return out
}

// SpreadStreams splits a total stream budget across ranks as evenly as
// possible (earlier ranks take the remainder) — a helper for building the
// unequal-stream-count layouts HybridPartition and NewLocalBTA accept
// when the time dimension cannot absorb a full ranks × perRank
// grid.
func SpreadStreams(ranks, total int) []int {
	if ranks < 1 {
		ranks = 1
	}
	if total < ranks {
		total = ranks
	}
	out := make([]int, ranks)
	base, extra := total/ranks, total%ranks
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

func maxIdx(sizes []int, skip int) int {
	best, bi := -1, -1
	for i, s := range sizes {
		if i == skip {
			continue
		}
		if s > best {
			best, bi = s, i
		}
	}
	return bi
}

// boundaries returns the global indices of the partition's boundary blocks
// given its position: the first partition's bottom block, middle partitions'
// top and bottom blocks, the last partition's top block.
func boundaries(part Partition, rank, p int) []int {
	switch {
	case p == 1:
		return nil
	case rank == 0:
		return []int{part.Hi}
	case rank == p-1:
		return []int{part.Lo}
	default:
		return []int{part.Lo, part.Hi}
	}
}

// interiors returns the global indices of the partition's interior
// (rank-locally eliminated) blocks, in elimination order.
func interiors(part Partition, rank, p int) []int {
	var lo, hi int
	switch {
	case p == 1:
		lo, hi = part.Lo, part.Hi
	case rank == 0:
		lo, hi = part.Lo, part.Hi-1
	case rank == p-1:
		lo, hi = part.Lo+1, part.Hi
	default:
		lo, hi = part.Lo+1, part.Hi-1
	}
	out := make([]int, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, k)
	}
	return out
}

// reducedIndexTop and reducedIndexBot give the reduced-system block index of
// a rank's top/bottom boundary. Reduced ordering: [hi₀, lo₁, hi₁, lo₂, hi₂,
// …, lo_{P−1}], of size 2P−2.
func reducedIndexTop(rank int) int { return 2*rank - 1 }
func reducedIndexBot(rank int) int {
	if rank == 0 {
		return 0
	}
	return 2 * rank
}

// reducedSize returns the reduced system's block count for P partitions.
func reducedSize(p int) int { return 2*p - 2 }
