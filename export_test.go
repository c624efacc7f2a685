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

// WithSectionBudget caps the external engine's resident segment sections
// at bytes, so that tests can make a store evict.
func WithSectionBudget(bytes int) Option {
	return func(c *config) { c.sectionBudget = bytes }
}
