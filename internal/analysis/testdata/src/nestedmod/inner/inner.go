// Package inner sits below a nested module's go.mod; it is skipped along
// with its module root.
package inner

// Value exists so the directory holds buildable Go code.
func Value() int { return 2 }
