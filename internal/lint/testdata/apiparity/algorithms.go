package fixture

import (
	"mcfs/internal/baseline"
	"mcfs/internal/core"
)

// algorithms.go is the sanctioned registry file: binding internal
// solver implementations here is the point, not a finding.
func registryBindings() {
	baseline.HilbertCtx(nil, nil, core.Options{})
	core.SolveCtx(nil, nil, core.Options{})
	core.SolveUniformFirstCtx(nil, nil, core.Options{})
}
