package bus

// NewMemBuffer builds a bus with a per-subscription queue of n
// messages, for tests that exercise backpressure throughout.
func NewMemBuffer(n int) *Mem { return newMem(n) }
