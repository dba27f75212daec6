// Package lib holds one function per deadcode root rule, plus the two
// kinds of dead function the analyzer must report.
package lib

// Shape is an interface the module declares; methods named like its
// methods stay live even with no static call.
type Shape interface {
	Area() float64
}

type square struct{ side float64 }

// Area satisfies Shape: live by the interface rule.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter matches no interface method and nothing calls it.
func (s square) Perimeter() float64 { return 4 * s.side } // want "lib.square.Perimeter is unreachable"

// Used is called from main.
func Used() int { return helper() }

// helper is live through Used.
func helper() int { return 1 }

// ViaAPI is called only from the root package's exported API.
func ViaAPI() int { return 2 }

// CrossTestOracle is called only from another package's test.
func CrossTestOracle() int { return 3 }

// handlers references fromVar in a package-level var initializer.
var handlers = map[string]func() int{"x": fromVar}

// fromVar is live through the handlers initializer.
func fromVar() int { return 4 }

// lazy declares a closure in a package-level var initializer.
var lazy = func() int { return fromLiteral() }

// fromLiteral is live through the closure lazy holds.
func fromLiteral() int { return 8 }

var initialized int

func init() { initialized = fromInit() }

// fromInit is live through init.
func fromInit() int { return 5 }

// OwnTestOnly is called only from this package's own test: dead.
func OwnTestOnly() int { return 6 } // want "lib.OwnTestOnly is unreachable"

// Unreachable has no caller at all.
func Unreachable() int { return orphanHelper() } // want "lib.Unreachable is unreachable"

// orphanHelper is called only from dead code.
func orphanHelper() int { return 7 } // want "lib.orphanHelper is unreachable"

// Box is a generic type whose methods are called only through an
// instantiation.
type Box[T any] struct{ v T }

// Get is live through main's call on a Box[int].
func (b *Box[T]) Get() T { return b.v }

// Set has no caller on any instantiation.
func (b *Box[T]) Set(v T) { b.v = v } // want "Set is unreachable"
