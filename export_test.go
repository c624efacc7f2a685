package xarch

// The department and select corpora, for the model test in package
// xarch_test.
var (
	QuickSpec     = quickSpec
	DeptVersion   = deptVersion
	SelectSpec    = selectSpec
	SelectVersion = selectVersion
	SelectLeaves  = selectLeaves
	RandExpr      = randExpr
)
