// Package other calls into lib from its test.
package other

// Twice doubles x.
func Twice(x int) int { return 2 * x }
