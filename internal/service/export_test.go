package service

import "ldcflood/internal/telemetry"

// Test seams for the external service_test package.

// Registry returns s's service-level telemetry registry (the floodd.*
// instruments).
func Registry(s *Service) *telemetry.Registry { return s.reg }

// SetCellStartHook makes every local worker of s call f just before it
// simulates a cell. Call it before the first Submit.
func SetCellStartHook(s *Service, f func()) { s.cellStart = f }
