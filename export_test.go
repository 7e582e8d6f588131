package spotfi

// Helpers shared with the external spotfi_test package, whose soaks build
// the serving graph through internal/service (which imports spotfi).
var (
	NewTestLogger = testLogger
	DeploymentAPs = deploymentAPs
)
