package bta

import "fmt"

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

// defaultLoadBalance is the load-balance factor of Partitions: the first
// partition runs the cheaper one-sided elimination (no top-boundary
// updates, §V-C), so it gets ~1.7× the blocks of the two-sided partitions
// to equalize the per-partition makespan.
const defaultLoadBalance = 1.7

// Partitions is the split of n diagonal blocks over p ranks that a
// distributed S3 solver runs: PartitionBlocks at defaultLoadBalance, or the
// even split where the load-balanced one cannot fit a tiny block count.
// Every p ≤ MaxPartitions(n) fits.
func Partitions(n, p int) ([]Partition, error) {
	parts, err := PartitionBlocks(n, p, defaultLoadBalance)
	if err != nil {
		return PartitionBlocks(n, p, 1)
	}
	return parts, nil
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
