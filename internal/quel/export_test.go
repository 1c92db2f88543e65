package quel

// Test helpers for the external quel_test package, whose tests import
// packages (biblio, cmn) that themselves import quel.
var (
	NewTestSession = newSession
	MustExec       = mustExec
	PlanLines      = planLines
	SetupChords    = setupChords
)

// SetNaive switches s to the naive executor, the planner's oracle.
func SetNaive(s *Session) { s.naive = true }
