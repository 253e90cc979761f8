package inla

// SharedPlan is how an evaluator spends its core budget on a batch: every
// core goes to S1, one θ-point evaluation each, and every evaluation
// factorizes on a sequential factor. The S3 layer — parallel-in-time
// partitions inside one factorization — is the distributed evaluator's
// (dist.go), so a fit's bits do not depend on the budget.
type SharedPlan struct {
	// Cores is the core budget: the bound on concurrent point evaluations,
	// and the number of candidates one line-search round of Minimize
	// evaluates.
	Cores int
}
