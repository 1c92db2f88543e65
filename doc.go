// Package repro is a full reproduction of "A Database Design for Musical
// Information" (W. Bradley Rubenstein, Proc. ACM SIGMOD 1987): a music
// data manager built on the entity-relationship model extended with
// hierarchical ordering.
//
// The public surface lives under internal/ packages composed by
// internal/mdm; the executables are cmd/mdm (interactive DDL/QUEL
// shell), cmd/mdmd (network server), cmd/darmsconv (DARMS canonizer),
// cmd/figures (regenerates every figure of the paper), and cmd/mdmbench
// (prints the table of paper measurements recorded in EXPERIMENTS.md).
// Every measurement of the paper's claims is defined once, in
// internal/experiments; go test -bench Paper ./internal/experiments
// times it.
package repro
