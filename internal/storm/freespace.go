package storm

// freeSpace is the store's free-space map: leaf i holds the bytes a new
// record could occupy on dataPages[i] (Page.AvailableSpace), under a max
// tournament tree, so "the lowest page with at least need bytes" costs
// O(log pages) instead of a walk over every page. Leaves are only ever
// appended, in page-id order, exactly as dataPages is.
type freeSpace struct {
	n    int   // leaves in use
	size int   // leaf capacity, a power of two (0 before the first append)
	max  []int // max[1] is the root, max[size+i] is leaf i
}

// append adds the next data page's leaf.
func (t *freeSpace) append(free int) {
	if t.n == t.size {
		size := max(2*t.size, 64)
		grown := make([]int, 2*size)
		copy(grown[size:], t.max[t.size:t.size+t.n])
		for i := size - 1; i >= 1; i-- {
			grown[i] = max(grown[2*i], grown[2*i+1])
		}
		t.size, t.max = size, grown
	}
	t.n++
	t.set(t.n-1, free)
}

// set records leaf i's free bytes.
func (t *freeSpace) set(i, free int) {
	i += t.size
	t.max[i] = free
	for i >>= 1; i >= 1; i >>= 1 {
		t.max[i] = max(t.max[2*i], t.max[2*i+1])
	}
}

// total sums the free bytes over all leaves.
func (t *freeSpace) total() int {
	sum := 0
	for _, free := range t.max[t.size : t.size+t.n] {
		sum += free
	}
	return sum
}

// firstFit returns the lowest leaf at or after from with at least need
// free bytes (need > 0), or -1.
func (t *freeSpace) firstFit(from, need int) int {
	if t.size == 0 {
		return -1
	}
	return t.search(1, 0, t.size, from, need)
}

func (t *freeSpace) search(node, lo, hi, from, need int) int {
	if hi <= from || t.max[node] < need {
		return -1
	}
	if hi-lo == 1 {
		return lo
	}
	mid := (lo + hi) / 2
	if i := t.search(2*node, lo, mid, from, need); i >= 0 {
		return i
	}
	return t.search(2*node+1, mid, hi, from, need)
}
