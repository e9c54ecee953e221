package server

import "streamcover/internal/wire"

// CreateSession and CloseSession let the package's external benchmarks
// time a create and a delete without the wire in between.
func (s *Server) CreateSession(c wire.Create) error { return s.createSession(c) }
func (s *Server) CloseSession(name string) error    { return s.closeSession(name) }
