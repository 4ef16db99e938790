package fixture

import (
	"mcfs/internal/baseline"
	corealias "mcfs/internal/core"
)

// Reaching the baseline package outside algorithms.go reopens a private
// dispatch path around the Algorithm registry.
func sneakyBaseline() {
	baseline.BRNNCtx(nil, nil, corealias.Options{}) // want "bypasses the Algorithm registry"
}

// The core Solve* family is guarded even behind a renamed import.
func sneakyCore() {
	corealias.SolveCtx(nil, nil, corealias.Options{}) // want "bypasses the Algorithm registry"
}

// core's non-Solve helpers remain fair game for the rest of the root
// package.
func coreHelper() {
	corealias.AssignToSelectionCtx(nil, nil, nil, corealias.Options{})
}
