package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"

	"repro/internal/spatial"
)

// Keys. A workload's preloaded records have indexes [0, n). Index i maps to
// key (i * keyMult) mod n: a bijection on [0, n) (keyMult is prime and
// larger than any n used), so the keys are dense — a scan of [k, k+100)
// returns exactly 100 records — while the hot low indexes of a zipfian
// draw land in different leaves.
const keyMult = 2654435761

func keyOf(idx, n uint64) uint64 { return idx * keyMult % n }

// windowKey is the j-th key a client inserts on a core tree. Each client
// writes its own dense region above every preloaded key, so inserts fill
// leaves at the region's head (splits) and deletes of the oldest keys drain
// them at its tail (consolidation).
func windowKey(client int, j uint64) uint64 { return uint64(client+1)<<40 + j }

const coordBits = 20

// pointOf maps an index to a point of the 2^20 x 2^20 square by a bijective
// mix of the low 40 bits, so distinct indexes give distinct, uniformly
// spread points and the index can be read back from the point.
func pointOf(idx uint64) spatial.Point {
	const mask = 1<<(2*coordBits) - 1
	z := idx & mask
	z ^= z >> 21
	z = z * 0x9E3779B97F4A7C15 & mask
	z ^= z >> 17
	z = z * 0xBF58476D1CE4E5B9 & mask
	z ^= z >> 23
	return spatial.Point{X: z >> coordBits, Y: z & (1<<coordBits - 1)}
}

// pointID packs a point of the square into one integer; idPoint undoes it.
func pointID(p spatial.Point) uint64 { return p.X<<coordBits | p.Y }

func idPoint(id uint64) spatial.Point {
	return spatial.Point{X: id >> coordBits, Y: id & (1<<coordBits - 1)}
}

// Values are 100 bytes and self-describing: id (the key, or the packed
// point) | writer's sequence number | filler | CRC-32C of the first 96
// bytes. Any read can therefore be checked without an oracle, and
// (id, seq) rebuilds the whole value for the crash-restart audit.
const valueLen = 100

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func fillValue(dst []byte, id, seq uint64) {
	binary.BigEndian.PutUint64(dst[0:], id)
	binary.BigEndian.PutUint64(dst[8:], seq)
	for i := 16; i < valueLen-4; i += 8 {
		binary.BigEndian.PutUint64(dst[i:], seq^id)
	}
	binary.BigEndian.PutUint32(dst[valueLen-4:], crc32.Checksum(dst[:valueLen-4], castagnoli))
}

func valueOK(v []byte, id uint64) bool {
	return len(v) == valueLen &&
		binary.BigEndian.Uint64(v) == id &&
		binary.BigEndian.Uint32(v[valueLen-4:]) == crc32.Checksum(v[:valueLen-4], castagnoli)
}

func valueSeq(v []byte) uint64 { return binary.BigEndian.Uint64(v[8:]) }

// opKind names one call into a tree. The class (read, write, scan) decides
// which latency histogram an op lands in.
type opKind uint8

const (
	opSearch opKind = iota
	opRangeScan
	opUpdate
	opInsert
	opDelete
	opPut
	opSnapshotGet
	opGetAsOf
	opSnapshotScan
	opSpatialInsert
	opSpatialSearch
	opRegionQuery
	numOpKinds
)

type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

var opInfo = [numOpKinds]struct {
	name  string
	class opClass
}{
	opSearch:        {"Search", classRead},
	opRangeScan:     {"RangeScan", classScan},
	opUpdate:        {"Update", classWrite},
	opInsert:        {"Insert", classWrite},
	opDelete:        {"Delete", classWrite},
	opPut:           {"Put", classWrite},
	opSnapshotGet:   {"SnapshotGet", classRead},
	opGetAsOf:       {"GetAsOf", classRead},
	opSnapshotScan:  {"SnapshotScan", classScan},
	opSpatialInsert: {"Insert", classWrite},
	opSpatialSearch: {"Search", classRead},
	opRegionQuery:   {"RegionQuery", classScan},
}

// mixEntry gives an op kind's share of a mix, in percent.
type mixEntry struct {
	kind opKind
	pct  int
}

type mixOf []mixEntry

func (m mixOf) hasClass(c opClass) bool {
	for _, e := range m {
		if opInfo[e.kind].class == c && e.pct > 0 {
			return true
		}
	}
	return false
}

// op is one generated operation. idx is a record index in [0, n) for ops
// on existing records; aux is a second random draw (an as-of time, a query
// window's origin). Ops that create or remove records take their key from
// the client's own counters when they run.
type op struct {
	kind opKind
	idx  uint64
	aux  uint64
}

// generator turns a seed into one client's op sequence. Everything the
// program sees comes from here, so the same seed replays the same inputs.
type generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	n     uint64
	kinds [100]opKind
}

// newGenerator draws indexes from [0, n): zipfian (s=1.1, v=1) or uniform.
func newGenerator(seed int64, mix mixOf, n uint64, zipfian bool) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), n: n}
	if zipfian {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, n-1)
	}
	i := 0
	for _, e := range mix {
		for j := 0; j < e.pct; j++ {
			g.kinds[i] = e.kind
			i++
		}
	}
	if i != len(g.kinds) {
		panic("mix does not sum to 100 percent")
	}
	return g
}

func (g *generator) next() op {
	o := op{kind: g.kinds[g.rng.Intn(len(g.kinds))], aux: g.rng.Uint64()}
	if g.zipf != nil {
		o.idx = g.zipf.Uint64()
	} else {
		o.idx = uint64(g.rng.Int63n(int64(g.n)))
	}
	return o
}

func (g *generator) fill(block []op) {
	for i := range block {
		block[i] = g.next()
	}
}
