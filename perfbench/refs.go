package main

// cityRefs maps a wma-city instance seed to its WMA objective, recorded
// from mcfs.Solve; every wma-city solve must reproduce it exactly.
var cityRefs = map[int64]int64{
	1:  1257339,
	2:  1251651,
	3:  1272377,
	16: 1296411,
}

// exactRefs maps an exact-small instance seed to its optimum, recorded
// from mcfs.SolveExact and pinned against mcfs.SolveExhaustive by
// TestExactReferencesExhaustive.
var exactRefs = map[int64]int64{
	1: 21297,
	2: 19602,
	3: 21379,
	4: 24272,
}

// heldOutSeeds are the instances --holdout runs in place of each
// workload's own: inputs no change may be tuned on (README.md, "Seeds").
var heldOutSeeds = map[string][]int64{
	"wma-city":    {16},
	"exact-small": {4},
	"mcfsd-mixed": {2},
}
