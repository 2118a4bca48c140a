package snapshot

// This file is the collect-buffer pool of LockFree. A double collect wider
// than stackCollect borrows its first-collect target from here instead of
// allocating one per scan. Buffers are touched only by the goroutine that
// got them and are returned the moment the collect ends; they carry no
// identity, so reuse is invisible and a plain sync.Pool is enough.
//
// Scan records and registry enrollments are not pooled. Both are shared
// with walkers that may still hold a path to them after they retire, so
// recycling either would reopen the ABA the paper never faces; the garbage
// collector frees them once no walker can reach them (see registry.go).

// scanBuffer is one goroutine's first-collect target for a double collect
// wider than stackCollect. It grows to the widest scan it has served and
// is only ever touched by the goroutine that got it from the pool.
type scanBuffer[V any] struct {
	cells []*V
}

// getBuf returns a collect buffer of length n, reusing a pooled one when
// one is available.
func (o *LockFree[V]) getBuf(n int) *scanBuffer[V] {
	sb, _ := o.bufs.Get().(*scanBuffer[V])
	if sb == nil {
		sb = &scanBuffer[V]{}
	}
	if cap(sb.cells) < n {
		sb.cells = make([]*V, n)
	}
	sb.cells = sb.cells[:n]
	return sb
}

func (o *LockFree[V]) putBuf(sb *scanBuffer[V]) { o.bufs.Put(sb) }
