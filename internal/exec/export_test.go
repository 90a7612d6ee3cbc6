package exec

import "sync"

// ResetScratchPool empties the pool Run takes its scratch from.
func ResetScratchPool() { scratchPool = sync.Pool{New: scratchPool.New} }
