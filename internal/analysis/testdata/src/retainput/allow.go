package retainput

type pinnedStore struct {
	blobs map[string][]byte
}

// Put pins the caller's slice on purpose — a fake that breaks the
// contract to show a conformance test catches it.
//
//moc:allow retainput fixture: store that retains by design
func (s *pinnedStore) Put(key string, data []byte) error {
	s.blobs[key] = data
	return nil
}
