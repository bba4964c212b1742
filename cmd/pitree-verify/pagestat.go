package main

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/fsys"
	"repro/internal/storage"
)

// runPageStat scans the page file at path in fs read-only and prints its
// slot size and slots; its pages, free slots and stale slots (intact
// frames a newer image of their page supersedes: limbo, or freed and not
// yet reused, in the process that wrote the file); the mean, median and
// 99th percentile of the pages' image bytes; and the fill — the pages'
// image bytes over what their slots could hold.
func runPageStat(w io.Writer, fs fsys.FS, path string) error {
	c, err := storage.CensusPageFile(fs, path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "page file %s\n", path)
	fmt.Fprintf(w, "  slot size %d B (payload %d B), slots %d\n", c.SlotSize, c.Payload, c.Slots)
	fmt.Fprintf(w, "  pages %d, free slots %d, stale slots %d, torn pages %d\n", len(c.Images), c.Free, c.Stale, c.Torn)
	if len(c.Images) == 0 {
		return nil
	}
	slices.Sort(c.Images)
	total := 0
	for _, n := range c.Images {
		total += n
	}
	pct := func(p int) int { return c.Images[(len(c.Images)-1)*p/100] }
	fmt.Fprintf(w, "  image bytes: total %d, mean %.0f, p50 %d, p99 %d, max %d\n",
		total, float64(total)/float64(len(c.Images)), pct(50), pct(99), c.Images[len(c.Images)-1])
	fmt.Fprintf(w, "  fill %.3f (image bytes / (pages x payload)); file %d B for %d image bytes\n",
		float64(total)/float64(len(c.Images)*c.Payload), c.Bytes, total)
	return nil
}
