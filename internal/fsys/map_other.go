//go:build !linux

package fsys

import "os"

// mapFile opens the file at name for positional reads.
func mapFile(name string, _ int) (Mapping, error) { return os.Open(name) }
