package persist

// This file implements the snapshot layout (format version 4), the
// only one Save writes: after the header line, a flat sequence of
// self-describing binary sections, each `[1-byte kind][uint64 LE
// length][payload][uint32 LE crc32]`. Unlike the retired gob
// envelopes, every section is addressable without decoding its
// neighbours, so LoadFile can mmap the whole file and serve postings
// straight out of the mapping: the symbol table and postings payloads
// are the index.SymbolTable / index.OpenCompact byte forms, decoded
// lazily block by block as queries touch them. Cold start touches only
// the section directory, the symbol table, the schema, and the corpus
// fingerprint walk.
//
// Section kinds, in file order:
//
//	'M'  head: gob(v4Head) — Meta
//	'X'  live only: the base document XML (the tree as of the last
//	     compaction), making the snapshot self-contained — the loading
//	     caller cannot regenerate a written-to corpus, so Load then
//	     ignores its root argument
//	'J'  live with pending writes only: gob []update.JournalOp, the
//	     writes applied since the base, replayed in order through the
//	     engine's write path at load. Never present without 'X'.
//	'Y'  symbol table (index.SymbolTable.AppendEncoded)
//	'S'  schema (xseek.Schema.Save)
//	'P'  postings payload (index.EncodeCompact) of the one index. The
//	     payload is self-versioning (a magic + version uvarint pair
//	     ahead of the term count) and carries per-block score-bound
//	     maxima for WAND pruning.
//
// CRC policy: every section a load decodes is verified — fail closed
// into a rebuild. A journal that fails to replay fails the load.
//
// Older builds wrote two v4 variants that are no longer opened: sharded
// snapshots (a 'F' term-frequency section and one 'P' section per
// shard), and 'P' payloads from before block maxima existed, which
// index.OpenCompact refuses with index.ErrPreBoundsPayload. Both load
// the way a v3 snapshot does: the corpus fingerprint is checked, one
// index is built over the tree, and any journal is replayed (returned
// Meta.Rebuilt). A sharded file's 'Y', 'S', 'F' and 'P' payloads are
// never decoded.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/update"
	"repro/internal/xmltree"
	"repro/internal/xseek"
)

// CompactFormatVersion identifies the mmap-able sectioned layout.
const CompactFormatVersion = 4

// Section kinds.
const (
	secHead    = 'M'
	secXML     = 'X'
	secJournal = 'J'
	secSymbols = 'Y'
	secSchema  = 'S'
	secFreqs   = 'F' // legacy sharded snapshots only; never written
	secPost    = 'P'
)

// v4Head is the gob payload of the 'M' section. Legacy sharded heads
// also carry an aggregate element count and Meta a shard count, which
// decoding skips.
type v4Head struct {
	Meta Meta
}

// v4Section is one parsed section. Data aliases the snapshot bytes
// (the mapping, when mmap-ed); Sum is the stored CRC, verified eagerly
// or lazily per the policy above.
type v4Section struct {
	Kind byte
	Data []byte
	Sum  uint32
}

func (s v4Section) verify() error {
	if got := crc32.ChecksumIEEE(s.Data); got != s.Sum {
		return fmt.Errorf("persist: v4 section %q checksum mismatch (%08x, want %08x): snapshot corrupt", s.Kind, got, s.Sum)
	}
	return nil
}

// writeV4Section writes one framed section.
func writeV4Section(w io.Writer, kind byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: v4 section %q: %w", kind, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("persist: v4 section %q: %w", kind, err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("persist: v4 section %q: %w", kind, err)
	}
	return nil
}

// parseV4Sections splits the post-header bytes into sections without
// copying or verifying payloads.
func parseV4Sections(data []byte) ([]v4Section, error) {
	var out []v4Section
	pos := 0
	for pos < len(data) {
		if len(data)-pos < 13 {
			return nil, fmt.Errorf("persist: v4: truncated section header at offset %d", pos)
		}
		kind := data[pos]
		n := binary.LittleEndian.Uint64(data[pos+1 : pos+9])
		pos += 9
		if n > uint64(len(data)-pos-4) {
			return nil, fmt.Errorf("persist: v4: section %q truncated (%d bytes declared, %d available)", kind, n, len(data)-pos-4)
		}
		payload := data[pos : pos+int(n)]
		pos += int(n)
		sum := binary.LittleEndian.Uint32(data[pos : pos+4])
		pos += 4
		out = append(out, v4Section{Kind: kind, Data: payload, Sum: sum})
	}
	return out, nil
}

// saveV4 writes the sectioned layout. xml, when non-nil, becomes the
// self-containing 'X' section, and a non-empty journal the 'J' section
// replayed over it.
func saveV4(w io.Writer, root *xmltree.Node, x *xseek.Engine, xml []byte, journal []update.JournalOp, meta Meta) error {
	meta.RootTag = root.Tag
	meta.NodeCount, meta.ContentHash = fingerprint(root)
	meta.Rebuilt = false

	// The symbol table is interned in sorted vocabulary order so
	// snapshot bytes are deterministic.
	st := index.NewSymbolTable()
	head := v4Head{Meta: meta}
	for _, t := range x.Index().Vocabulary() {
		st.Intern(t)
	}

	if _, err := fmt.Fprintf(w, "%s %d\n", magic, CompactFormatVersion); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	var headBuf bytes.Buffer
	if err := gob.NewEncoder(&headBuf).Encode(&head); err != nil {
		return fmt.Errorf("persist: encode head: %w", err)
	}
	if err := writeV4Section(w, secHead, headBuf.Bytes()); err != nil {
		return err
	}
	if xml != nil {
		if err := writeV4Section(w, secXML, xml); err != nil {
			return err
		}
	}
	if len(journal) > 0 {
		var jBuf bytes.Buffer
		if err := gob.NewEncoder(&jBuf).Encode(journal); err != nil {
			return fmt.Errorf("persist: encode journal: %w", err)
		}
		if err := writeV4Section(w, secJournal, jBuf.Bytes()); err != nil {
			return err
		}
	}
	if err := writeV4Section(w, secSymbols, st.AppendEncoded(nil)); err != nil {
		return err
	}
	var schBuf bytes.Buffer
	if err := x.Schema().Save(&schBuf); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := writeV4Section(w, secSchema, schBuf.Bytes()); err != nil {
		return err
	}
	payload, err := index.EncodeCompact(x.Index(), st)
	if err != nil {
		return fmt.Errorf("persist: postings: %w", err)
	}
	return writeV4Section(w, secPost, payload)
}

// loadV4 assembles a serving engine over the section bytes (everything
// after the header line) and replays any journal through it. data may
// be an mmap-ed region: postings sections are handed to the index
// layer as-is and decoded lazily, so data must stay valid for the
// engine's lifetime.
func loadV4(data []byte, root *xmltree.Node, cfg engine.Config) (*engine.Engine, Meta, error) {
	secs, err := parseV4Sections(data)
	if err != nil {
		return nil, Meta{}, err
	}
	var head *v4Head
	var symSec, schSec, xmlSec, jSec *v4Section
	var posts []v4Section
	sharded := false
	for i := range secs {
		s := &secs[i]
		switch s.Kind {
		case secHead:
			if err := s.verify(); err != nil {
				return nil, Meta{}, err
			}
			head = &v4Head{}
			if err := gob.NewDecoder(bytes.NewReader(s.Data)).Decode(head); err != nil {
				return nil, Meta{}, fmt.Errorf("persist: decode head: %w", err)
			}
		case secXML:
			xmlSec = s
		case secJournal:
			jSec = s
		case secSymbols:
			symSec = s
		case secSchema:
			schSec = s
		case secFreqs:
			// A legacy sharded snapshot's frequency table: never read.
			sharded = true
		case secPost:
			posts = append(posts, *s)
		default:
			return nil, Meta{}, fmt.Errorf("persist: v4: unknown section kind %q", s.Kind)
		}
	}
	if head == nil || symSec == nil || schSec == nil || len(posts) == 0 {
		return nil, Meta{}, fmt.Errorf("persist: v4: missing required sections")
	}
	var journal []byte
	if jSec != nil {
		// A journal replays over the embedded base only; over the
		// caller's tree its ordinals would address the wrong entities.
		if xmlSec == nil {
			return nil, Meta{}, fmt.Errorf("persist: v4: journal section without an embedded corpus")
		}
		if err := jSec.verify(); err != nil {
			return nil, Meta{}, err
		}
		journal = jSec.Data
	}
	if xmlSec != nil {
		// Self-contained snapshot: the tree travels with it, and the
		// caller's root (a generator corpus that cannot know about
		// written entities) is ignored.
		if err := xmlSec.verify(); err != nil {
			return nil, Meta{}, err
		}
		root, err = xmltree.ParseString(string(xmlSec.Data))
		if err != nil {
			return nil, Meta{}, fmt.Errorf("persist: parse embedded corpus: %w", err)
		}
	}
	if err := verifyFingerprint(head.Meta, root); err != nil {
		return nil, Meta{}, err
	}
	embedded := xmlSec != nil
	if sharded {
		// A legacy sharded snapshot: its parts are not read back, the
		// verified tree is indexed once instead.
		return rebuilt(root, cfg, embedded, journal, head.Meta)
	}
	if len(posts) != 1 {
		return nil, Meta{}, fmt.Errorf("persist: v4: %d postings sections for a monolithic snapshot", len(posts))
	}
	if err := symSec.verify(); err != nil {
		return nil, Meta{}, err
	}
	st, err := index.DecodeSymbolTable(symSec.Data)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("persist: %w", err)
	}
	if err := schSec.verify(); err != nil {
		return nil, Meta{}, err
	}
	schema, err := xseek.LoadSchema(bytes.NewReader(schSec.Data))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("persist: %w", err)
	}

	if err := posts[0].verify(); err != nil {
		return nil, Meta{}, err
	}
	idx, err := index.OpenCompact(root, st, posts[0].Data)
	if errors.Is(err, index.ErrPreBoundsPayload) {
		// Postings written before block maxima: the verified tree is
		// indexed once instead, so every served index carries bounds.
		return rebuilt(root, cfg, embedded, journal, head.Meta)
	}
	if err != nil {
		return nil, Meta{}, fmt.Errorf("persist: %w", err)
	}
	return replayed(engine.FromXseek(xseek.FromParts(root, idx, schema), cfg), embedded, journal, head.Meta)
}

// rebuilt serves a snapshot in a retired layout: one index is built
// over its verified tree, and the result is finished like an opened
// one, with Meta.Rebuilt set.
func rebuilt(root *xmltree.Node, cfg engine.Config, embedded bool, journal []byte, meta Meta) (*engine.Engine, Meta, error) {
	meta.Rebuilt = true
	return replayed(engine.NewWithConfig(root, cfg), embedded, journal, meta)
}

// replayed finishes a freshly assembled base engine: it marks a corpus
// read from the snapshot as embedded, so the engine's next snapshot
// carries it again, and replays the verified journal, if any.
func replayed(eng *engine.Engine, embedded bool, journal []byte, meta Meta) (*engine.Engine, Meta, error) {
	if embedded {
		eng.MarkCorpusEmbedded()
	}
	if journal != nil {
		if err := replayJournal(eng, journal); err != nil {
			return nil, Meta{}, err
		}
	}
	return eng, meta, nil
}

// replayJournal decodes a gob []update.JournalOp — the journal form
// both the v4 'J' section and the v3 envelope carry — and re-applies
// each op through eng's write path, in order. The ops address the
// base's entities by top-level ordinal, so eng must serve exactly the
// base the journal was recorded over.
func replayJournal(eng *engine.Engine, data []byte) error {
	var journal []update.JournalOp
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&journal); err != nil {
		return fmt.Errorf("persist: decode journal: %w", err)
	}
	for i, op := range journal {
		if op.Remove {
			if err := eng.RemoveEntity(dewey.New(op.Ord)); err != nil {
				return fmt.Errorf("persist: replay op %d: %w", i, err)
			}
			continue
		}
		n, err := xmltree.ParseString(op.XML)
		if err != nil {
			return fmt.Errorf("persist: replay op %d: %w", i, err)
		}
		if _, err := eng.AddEntity(n); err != nil {
			return fmt.Errorf("persist: replay op %d: %w", i, err)
		}
	}
	return nil
}
