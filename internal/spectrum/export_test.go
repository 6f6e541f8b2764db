package spectrum

// SetChunkHook runs h at the start of every band chunk, with the
// chunk's index, until the returned function removes it.
func SetChunkHook(h func(c int)) (restore func()) {
	testHookChunk = h
	return func() { testHookChunk = nil }
}
