// Package deadcode is the root package of the deadcode fixture: its
// exported API is a liveness root.
package deadcode

import "deadcode/internal/lib"

// API is a root-package export; everything it calls is live.
func API() int { return lib.ViaAPI() }
