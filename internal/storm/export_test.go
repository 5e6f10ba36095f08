package storm

// KeyBytes reports the bytes of names and keywords the walker currently
// remembers, delimiters included, for the external tests (keys_test.go).
func (s *Store) KeyBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i := range s.keys {
		if k := s.keys[i].Load(); k != nil {
			n += len(k.names) + len(k.keywords)
		}
	}
	return n
}
