package storage

import "slices"

// freeRuns is the page file's free space: maximal runs of free blocks,
// coalesced as they are freed, and allocated best fit. A run is keyed by
// its first block. Runs up to the largest frame's length sit in one
// address-ordered list per length; longer runs in one list of their own,
// which any request fits.
type freeRuns struct {
	byStart map[int]int // first block -> length
	byEnd   map[int]int // block after the run -> first block
	bySize  [][]int     // [n]: first blocks of the runs of exactly n blocks, ascending
	large   []int       // first blocks of the runs longer than len(bySize)-1, ascending
	total   int         // free blocks
}

// newFreeRuns returns an empty free space for requests of at most maxLen
// blocks.
func newFreeRuns(maxLen int) freeRuns {
	return freeRuns{byStart: make(map[int]int), byEnd: make(map[int]int), bySize: make([][]int, maxLen+1)}
}

// list returns the address-ordered list a run of n blocks belongs to.
func (r *freeRuns) list(n int) *[]int {
	if n < len(r.bySize) {
		return &r.bySize[n]
	}
	return &r.large
}

func (r *freeRuns) insert(start, n int) {
	r.byStart[start], r.byEnd[start+n] = n, start
	r.total += n
	l := r.list(n)
	i, _ := slices.BinarySearch(*l, start)
	*l = slices.Insert(*l, i, start)
}

func (r *freeRuns) remove(start int) (n int) {
	n = r.byStart[start]
	delete(r.byStart, start)
	delete(r.byEnd, start+n)
	r.total -= n
	l := r.list(n)
	i, _ := slices.BinarySearch(*l, start)
	*l = slices.Delete(*l, i, i+1)
	return n
}

// add frees blocks [start, start+n), merging them with the free runs on
// either side.
func (r *freeRuns) add(start, n int) {
	if left, ok := r.byEnd[start]; ok {
		n += r.remove(left)
		start = left
	}
	if _, ok := r.byStart[start+n]; ok {
		n += r.remove(start + n)
	}
	r.insert(start, n)
}

// fit returns the first block of the shortest run that holds n blocks,
// the lowest-addressed among equals, and reports whether there is one.
func (r *freeRuns) fit(n int) (int, bool) {
	for m := n; m < len(r.bySize); m++ {
		if len(r.bySize[m]) > 0 {
			return r.bySize[m][0], true
		}
	}
	if len(r.large) > 0 {
		return r.large[0], true
	}
	return 0, false
}

// split allocates the first n blocks of the run at start and keeps the
// rest free. The rest needs no merging: the run was maximal.
func (r *freeRuns) split(start, n int) {
	if m := r.remove(start); m > n {
		r.insert(start+n, m-n)
	}
}

// tail returns the first block and length of the free run that ends at
// block end (the end of the file), or end and 0.
func (r *freeRuns) tail(end int) (start, n int) {
	if s, ok := r.byEnd[end]; ok {
		return s, end - s
	}
	return end, 0
}
