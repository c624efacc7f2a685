package keys

// The company example, for the tests outside the package.
const (
	CompanySpec = companySpec
	Version4    = version4
)
