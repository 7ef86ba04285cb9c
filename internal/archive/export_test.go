package archive

// RecordCovers reports whether the availability record of name, as one
// stripe's probes would consult it, proves that node holds its blocks —
// false for an object with no committed record or a retired one.
func (s *Store) RecordCovers(name string, node int) bool {
	_, rec, err := s.lookup(name)
	return err == nil && s.covers(rec.live(), node)
}
