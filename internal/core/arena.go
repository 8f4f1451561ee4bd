package core

// ServeArena is grow-only per-batch scratch for the f32 serving lane:
// the serving tier owns one arena per scoring lane, calls Reset at the
// start of every coalesced flush, and every row/output buffer the batch
// needs is carved from three reusable slabs. Slabs only ever grow — a
// request for more than the remaining capacity allocates a larger
// replacement slab (outstanding slices keep the old one alive until the
// batch ends) — so once the slabs have warmed to the steady-state batch
// shape, a flush performs zero heap allocations in the scoring path.
// Hand-outs are zeroed, keeping batch results independent of what the
// previous flush wrote. An arena is not safe for concurrent use; the
// serving layer's single scoring lane serializes access.
type ServeArena struct {
	f64  []float64
	f32  []float32
	rows [][]float32

	f64Off, f32Off, rowsOff int
}

// NewServeArena returns an empty arena; slabs grow on first use.
func NewServeArena() *ServeArena { return &ServeArena{} }

// Reset recycles every slab for the next batch. Buffers handed out
// before Reset must no longer be referenced.
func (a *ServeArena) Reset() {
	a.f64Off, a.f32Off, a.rowsOff = 0, 0, 0
}

// arenaMinSlab is the initial slab element count; big enough that tiny
// first batches don't trigger a growth ladder.
const arenaMinSlab = 1024

// carve hands out the next n zeroed elements of *slab, replacing the slab
// with a larger one (at least double, never under arenaMinSlab) when the
// remainder is too short.
func carve[T any](slab *[]T, off *int, n int) []T {
	if *off+n > len(*slab) {
		*slab = make([]T, max(2*len(*slab), n, arenaMinSlab))
		*off = 0
	}
	s := (*slab)[*off : *off+n : *off+n]
	*off += n
	clear(s)
	return s
}

// F64 hands out a zeroed []float64 of length n from the slab.
func (a *ServeArena) F64(n int) []float64 { return carve(&a.f64, &a.f64Off, n) }

// F32 hands out a zeroed []float32 of length n from the slab.
func (a *ServeArena) F32(n int) []float32 { return carve(&a.f32, &a.f32Off, n) }

// Rows hands out a nil-cleared [][]float32 of length n from the slab.
func (a *ServeArena) Rows(n int) [][]float32 { return carve(&a.rows, &a.rowsOff, n) }
