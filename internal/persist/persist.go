package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/engine"
	"repro/internal/xmltree"
)

// LiveFormatVersion identifies the retired journaled layout (live.go):
// still read, never written. CompactFormatVersion (v4.go) is the one
// layout Save writes.
const LiveFormatVersion = 3

// magic is the first token of the header line.
const magic = "XSACTSNAP"

// Meta identifies the corpus a snapshot was taken from. CorpusName and
// Seed are caller-supplied identity (empty/zero when not applicable);
// RootTag, NodeCount and ContentHash are filled in by Save and
// verified by Load.
type Meta struct {
	CorpusName  string
	Seed        int64
	RootTag     string
	NodeCount   int
	ContentHash uint64
	// Rebuilt reports that Load built the index from the corpus tree
	// instead of opening it from the file, because the file is in a
	// retired layout: v3, a v4 file with per-shard sections, or a v4
	// file whose postings predate block maxima. Rewriting such a file
	// in the current layout makes the next load open it. Save never
	// records it.
	Rebuilt bool
}

// fingerprint summarizes the live tree: node count plus an FNV-1a hash
// over every node's Dewey ID, kind, tag, text, and attributes in
// document order. The ID ties each node's content to its position in
// the tree, so re-nestings that preserve the preorder data sequence
// still change the hash — essential, because the persisted posting
// lists address nodes by Dewey ID. The hash walk is far cheaper than
// tokenizing and indexing the same content.
func fingerprint(root *xmltree.Node) (count int, hash uint64) {
	h := fnv.New64a()
	var sep = []byte{0}
	// idBuf renders each node's Dewey ID with the same bytes as
	// dewey.ID.String — the walk runs on every snapshot save, load, and
	// mmap open, and a per-node String() allocation dominates the
	// otherwise near-zero v4 open cost.
	idBuf := make([]byte, 0, 64)
	root.Walk(func(n *xmltree.Node) bool {
		count++
		idBuf = idBuf[:0]
		if len(n.ID) == 0 {
			idBuf = append(idBuf, '/')
		}
		for i, c := range n.ID {
			if i > 0 {
				idBuf = append(idBuf, '.')
			}
			idBuf = strconv.AppendInt(idBuf, int64(c), 10)
		}
		h.Write(idBuf)
		h.Write([]byte{byte(n.Kind)})
		h.Write([]byte(n.Tag))
		h.Write(sep)
		h.Write([]byte(n.Text))
		for _, a := range n.Attrs {
			h.Write(sep)
			h.Write([]byte(a.Name))
			h.Write(sep)
			h.Write([]byte(a.Value))
		}
		h.Write(sep)
		return true
	})
	return count, h.Sum64()
}

// Save writes a v4 snapshot of eng to w. meta's CorpusName and Seed
// are recorded as given; the corpus fingerprint is taken from the tree
// the snapshot describes. An engine over a regenerable corpus — never
// written, and not itself loaded from a self-contained snapshot —
// stores only its derived state. Any other engine stores its base as
// of the last compaction — the tree itself in the 'X' section, plus
// its index and schema — and the journal of writes pending over that
// base ('J'). A distributed engine has no local state to store: its
// shard legs persist through group snapshots (EncodeGroup).
func Save(w io.Writer, eng *engine.Engine, meta Meta) error {
	live := eng.Live()
	if live == nil {
		return errors.New("persist: a distributed engine has no local snapshot; its shard legs persist through group snapshots")
	}
	// The parts are read before the epoch: epochs only grow, so an
	// epoch of 0 read afterwards proves the parts predate every write.
	baseRoot, x, journal := live.SnapshotParts()
	if live.Epoch() == 0 && !eng.CorpusEmbedded() {
		return saveV4(w, baseRoot, x, nil, nil, meta)
	}
	// The base tree is serialized and immediately re-parsed, so the
	// recorded fingerprint covers exactly the tree Load reconstructs
	// (serialization normalizes whitespace-only differences; postings
	// and the schema are insensitive to them).
	baseXML := xmltree.XMLString(baseRoot)
	reparsed, err := xmltree.ParseString(baseXML)
	if err != nil {
		return fmt.Errorf("persist: live base does not round-trip: %w", err)
	}
	return saveV4(w, reparsed, x, []byte(baseXML), journal, meta)
}

// Load reads a snapshot and assembles a serving engine with the given
// cache bounds, skipping index construction and schema inference. A
// snapshot that embeds its corpus (a live one) ignores root and
// resumes with its pending writes replayed, and the engine is marked
// (engine.MarkCorpusEmbedded) so that saving it embeds the corpus
// again; otherwise root must be the corpus the snapshot was taken
// from. A snapshot in a retired layout (returned Meta.Rebuilt) costs
// one index build over the verified tree. Load fails — and the caller
// should rebuild — on a bad header, a legacy (v1/v2) layout, a checksum
// or fingerprint mismatch, or a journal that does not replay.
func Load(r io.Reader, root *xmltree.Node, cfg engine.Config) (*engine.Engine, Meta, error) {
	br := bufio.NewReader(r)
	version, err := readHeader(br)
	if err != nil {
		return nil, Meta{}, err
	}
	switch version {
	case CompactFormatVersion:
		// The generic reader path buys none of the mapping win: read
		// the sections into memory and serve them lazily from there.
		// LoadFile has the mmap fast path.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, Meta{}, fmt.Errorf("persist: read v4 sections: %w", err)
		}
		return loadV4(data, root, cfg)
	case LiveFormatVersion:
		return loadLive(br, cfg)
	case 1, 2:
		return nil, Meta{}, fmt.Errorf("persist: format version %d is a legacy layout that is no longer read: rebuild", version)
	default:
		return nil, Meta{}, fmt.Errorf("persist: format version %d, want %d or %d", version, CompactFormatVersion, LiveFormatVersion)
	}
}

// readHeader parses the "XSACTSNAP <version>" header line.
func readHeader(br *bufio.Reader) (int, error) {
	header, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("persist: read header: %w", err)
	}
	var gotMagic string
	var version int
	if _, err := fmt.Sscanf(header, "%s %d", &gotMagic, &version); err != nil || gotMagic != magic {
		return 0, fmt.Errorf("persist: not a snapshot (header %q)", header)
	}
	return version, nil
}

// sniffVersion reads just a snapshot's header line and returns its
// format version.
func sniffVersion(r io.Reader) (int, error) {
	return readHeader(bufio.NewReader(io.LimitReader(r, 64)))
}

// verifyFingerprint checks a snapshot's corpus identity against the
// live tree.
func verifyFingerprint(meta Meta, root *xmltree.Node) error {
	count, hash := fingerprint(root)
	if meta.RootTag != root.Tag || meta.NodeCount != count || meta.ContentHash != hash {
		return fmt.Errorf("persist: snapshot of corpus <%s> (%d nodes, hash %016x) does not match <%s> (%d nodes, hash %016x)",
			meta.RootTag, meta.NodeCount, meta.ContentHash, root.Tag, count, hash)
	}
	return nil
}

// SaveFile writes a snapshot to path atomically and durably, creating
// parent directories as needed: the bytes go to a temp file that is
// synced before it is renamed over path, and the directory is synced
// after the rename (best effort where the platform cannot open or sync
// a directory). For a live engine the file is the only durable copy of
// its accepted writes.
func SaveFile(path string, eng *engine.Engine, meta Meta) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, eng, meta); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Make the rename itself durable. Some platforms and filesystems
	// cannot open or sync a directory; the file's own bytes are already
	// synced, so that failure is not reported.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SaveFileFormat is SaveFile for callers that name the layout; format
// must be CompactFormatVersion, the only layout written.
func SaveFileFormat(path string, eng *engine.Engine, meta Meta, format int) error {
	if format != CompactFormatVersion {
		return fmt.Errorf("persist: save format %d not supported (only %d is written)", format, CompactFormatVersion)
	}
	return SaveFile(path, eng, meta)
}

// LoadFile is Load over the file at path, with one upgrade: a v4
// snapshot is mmap-ed (where the platform allows) and served straight
// out of the mapping — the near-zero-restart path, where postings page
// in lazily as queries touch them. The mapping backs the returned
// engine and is intentionally never unmapped while it serves.
func LoadFile(path string, root *xmltree.Node, cfg engine.Config) (*engine.Engine, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	version, err := sniffVersion(f)
	if err != nil {
		return nil, Meta{}, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, Meta{}, fmt.Errorf("persist: %w", err)
	}
	if version != CompactFormatVersion {
		return Load(f, root, cfg)
	}
	data, cleanup, err := mapFile(f)
	if err != nil {
		return nil, Meta{}, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		cleanup()
		return nil, Meta{}, fmt.Errorf("persist: v4 snapshot missing header line")
	}
	eng, meta, err := loadV4(data[nl+1:], root, cfg)
	if err != nil {
		cleanup()
		return nil, Meta{}, err
	}
	return eng, meta, nil
}

// readFileFallback reads the whole file from the start — the
// platform-independent fallback behind mapFile.
func readFileFallback(f *os.File) ([]byte, func(), error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	return data, func() {}, nil
}
