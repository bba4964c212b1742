package main

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/fsys"
	"repro/internal/storage"
)

// runPageStat scans the page file at path in fs read-only and prints its
// block size and blocks; its pages, free blocks and stale blocks (inside
// intact frames a newer image of their page supersedes: limbo, or freed
// and not yet reused, in the process that wrote the file); how many of
// the pages' extents take each number of blocks; the mean, median and
// 99th percentile of the pages' image bytes; the fill — the pages' image
// bytes over the file's bytes; and the blocks the elected images would
// take packed, the header's included, which Close compacts the file
// toward.
func runPageStat(w io.Writer, fs fsys.FS, path string) error {
	c, err := storage.CensusPageFile(fs, path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "page file %s\n", path)
	fmt.Fprintf(w, "  block size %d B, blocks %d (slot size %d B, payload %d B)\n", c.BlockSize, c.Blocks, c.SlotSize, c.Payload)
	fmt.Fprintf(w, "  pages %d, free blocks %d, stale blocks %d, torn pages %d\n", len(c.Images), c.Free, c.Stale, c.Torn)
	if len(c.Images) == 0 {
		return nil
	}
	fmt.Fprintf(w, "  extents by length:")
	for n, k := range c.Extents {
		if k > 0 {
			fmt.Fprintf(w, " %d×%d", k, n)
		}
	}
	fmt.Fprintln(w, " blocks")
	slices.Sort(c.Images)
	total := 0
	for _, n := range c.Images {
		total += n
	}
	pct := func(p int) int { return c.Images[(len(c.Images)-1)*p/100] }
	fmt.Fprintf(w, "  image bytes: total %d, mean %.0f, p50 %d, p99 %d, max %d\n",
		total, float64(total)/float64(len(c.Images)), pct(50), pct(99), c.Images[len(c.Images)-1])
	fmt.Fprintf(w, "  fill %.3f (image bytes / file bytes); file %d B for %d image bytes\n",
		float64(total)/float64(c.Bytes), c.Bytes, total)
	packed := 1
	for n, k := range c.Extents {
		packed += n * k
	}
	fmt.Fprintf(w, "  packed: %d blocks, %d B, %.3f of the file\n",
		packed, int64(packed)*int64(c.BlockSize), float64(packed)/float64(c.Blocks))
	return nil
}
