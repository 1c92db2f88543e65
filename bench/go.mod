// The benchmark is a module of its own so that it builds from its own
// build file; it sits inside the engine's module path (repro/...) and
// may therefore import the engine's internal packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
