package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec translates a store's decoded page contents to and from bytes. Each
// access method supplies one Codec for all of its node types; the pool
// handles the meta page itself.
type Codec interface {
	// AppendPage appends the serialization of v to dst and returns the
	// extended slice, as append does. It must not retain v or dst.
	AppendPage(dst []byte, v any) ([]byte, error)
	// DecodePage parses bytes produced by AppendPage. Ownership of b passes
	// to the codec: the pool read b from the stable layer for this call
	// alone (Disk.Read) and never touches it again, so the decoded page may
	// keep b, alias it and write into it instead of copying it out.
	DecodePage(b []byte) (any, error)
}

// SuccessorCodec is an optional Codec extension for scan read-ahead: it
// extracts the forward side pointer from a decoded page so the pool's
// prefetcher can chain along a scan's traversal order without help from
// the access method. end is the scan's exclusive end key, nil for a scan
// with none. Return NilPage when the page has no successor (or is not a
// scannable leaf), or when it covers end — its high bound is at or past
// end — so the walk stops at the last leaf the scan reads. The pool
// calls it under the frame's S latch; the implementation must only read
// data.
type SuccessorCodec interface {
	SuccessorHint(data any, end []byte) PageID
}

// Page images on disk are framed as:
//
//	[0:8]  pageLSN (little endian)
//	[8]    type tag: tagMeta for the meta page, tagUser for codec pages
//	[9:]   content
const (
	tagMeta byte = 0
	tagUser byte = 1
	// imageHdrLen is the prefix's length.
	imageHdrLen = 9
)

var errShortImage = errors.New("storage: page image too short")

func unframeImage(img []byte) (pageLSN uint64, tag byte, content []byte, err error) {
	if len(img) < imageHdrLen {
		return 0, 0, nil, errShortImage
	}
	return binary.LittleEndian.Uint64(img[0:8]), img[8], img[imageHdrLen:], nil
}

// appendImage appends the framed image of a frame's decoded contents at
// pageLSN to dst: the (pageLSN, tag) prefix, and behind it the content as
// the store codec or the built-in meta codec writes it.
func (p *Pool) appendImage(dst []byte, pageLSN uint64, data any) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, pageLSN)
	if m, ok := data.(*Meta); ok {
		return m.appendTo(append(dst, tagMeta)), nil
	}
	return p.codec.AppendPage(append(dst, tagUser), data)
}

// decodeFrameData parses a stable image's content portion.
func (p *Pool) decodeFrameData(tag byte, content []byte) (any, error) {
	switch tag {
	case tagMeta:
		return decodeMeta(content)
	case tagUser:
		return p.codec.DecodePage(content)
	default:
		return nil, fmt.Errorf("storage: unknown page tag %d", tag)
	}
}
