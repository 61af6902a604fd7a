package core

// The goroutine-count helpers, for the tests in package core_test.
var (
	SettledGoroutines   = settledGoroutines
	CheckGoroutinesExit = checkGoroutinesExit
)
