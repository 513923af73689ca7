package graph

// BlockRange returns the contiguous vertex range [begin, end) owned by
// rank r when n vertices are distributed over p ranks in near-equal
// blocks, matching the paper's "read in by P processors in
// approximately equal sized chunks".
func BlockRange(n, p, r int) (begin, end int) {
	if p <= 0 || r < 0 || r >= p {
		panic("graph: BlockRange: invalid rank/size")
	}
	base := n / p
	extra := n % p
	if r < extra {
		begin = r * (base + 1)
		end = begin + base + 1
	} else {
		begin = extra*(base+1) + (r-extra)*base
		end = begin + base
	}
	return begin, end
}
