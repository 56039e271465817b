package persist

// This file reads the retired live snapshot layout (format version 3):
// one gob envelope holding the base document's XML, a nested snapshot
// of the base's derived state in a layout that is no longer read, and
// the journal of writes pending over the base. Nothing writes it any
// more — a journaled v4 snapshot carries the same state — but its
// journal holds accepted user writes, so it stays readable: the base
// is rebuilt from the XML as one index, whatever shard count it was
// saved with, and the journal is replayed over it. The nested snapshot
// stays covered by the envelope checksum but is never decoded.
//
// Like a live v4 snapshot, the layout is self-contained: the caller's
// tree cannot describe a corpus that has accepted writes, so Load
// ignores it and reconstructs the document from the snapshot. That
// holds even when the journal is empty (the engine was compacted
// before it was saved), so the loaded engine is marked as embedding
// its corpus and saves as a v4 snapshot that carries the tree.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"repro/internal/engine"
	"repro/internal/xmltree"
)

// liveEnvelope is the gob wire form of the live layout.
type liveEnvelope struct {
	Meta Meta
	// BaseXML is the base document (xmltree.XMLString); Base is a
	// nested snapshot of the base engine's derived state over it.
	BaseXML []byte
	Base    []byte
	// Journal is the gob-encoded []update.JournalOp pending over the
	// base, in application order.
	Journal  []byte
	Checksum uint32 // crc32(BaseXML ++ Base ++ Journal)
}

func (e *liveEnvelope) checksum() uint32 {
	crc := crc32.NewIEEE()
	crc.Write(e.BaseXML)
	crc.Write(e.Base)
	crc.Write(e.Journal)
	return crc.Sum32()
}

// loadLive decodes the v3 layout: rebuild the base from its XML, then
// replay the journal through the engine's write path. Any failure —
// corrupt envelope, fingerprint mismatch, unreplayable op — fails the
// load; the caller falls back to a rebuild of whatever corpus it can
// generate.
func loadLive(br *bufio.Reader, cfg engine.Config) (*engine.Engine, Meta, error) {
	var env liveEnvelope
	if err := gob.NewDecoder(br).Decode(&env); err != nil {
		return nil, Meta{}, fmt.Errorf("persist: decode: %w", err)
	}
	if got := env.checksum(); got != env.Checksum {
		return nil, Meta{}, fmt.Errorf("persist: live checksum mismatch (%08x, want %08x): snapshot corrupt", got, env.Checksum)
	}
	// Version skew fails closed: no writer ever produced a v3 envelope
	// around a v4 base, so finding one means mismatched tooling
	// stitched sections together. Refusing here sends the caller to a
	// rebuild instead of trusting a combination never tested against
	// this journal.
	if bytes.HasPrefix(env.Base, []byte(fmt.Sprintf("%s %d\n", magic, CompactFormatVersion))) {
		return nil, Meta{}, fmt.Errorf("persist: v3 live envelope wrapping a v4 base: version skew, rebuild required")
	}
	root, err := xmltree.ParseString(string(env.BaseXML))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("persist: parse live base: %w", err)
	}
	if err := verifyFingerprint(env.Meta, root); err != nil {
		return nil, Meta{}, err
	}
	return rebuilt(root, cfg, true, env.Journal, env.Meta)
}
