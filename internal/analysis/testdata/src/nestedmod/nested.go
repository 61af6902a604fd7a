// Package nestedmod is the root of its own module: a recursive pattern
// rooted above it must not descend into it.
package nestedmod

// Value exists so the directory holds buildable Go code.
func Value() int { return 1 }
