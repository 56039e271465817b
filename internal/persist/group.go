package persist

// This file implements the per-group snapshot (shard-group format
// version 1): the unit of state a distributed shard server ships and
// reloads. It is deliberately journal-shaped, like a live engine
// snapshot: the base document at the leg's last compaction plus the
// write ops applied since, so a restored leg replays its way back to
// the exact pre-crash state — same tree, same Dewey ordinals (holes
// included), same group index — and resumes at the same epoch. The
// whole-corpus ranking constants ride along as integers so the
// restored leg scores bit-identically without a coordinator round
// trip.

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/update"
)

// groupMagic opens a shard-group snapshot; it is distinct from the
// engine snapshot magic so neither loader misreads the other's files.
const groupMagic = "xsact-shard-group"

// GroupFormatVersion is the current shard-group snapshot version.
const GroupFormatVersion = 1

// GroupSnapshot is one shard server's complete per-corpus state.
type GroupSnapshot struct {
	// Epoch is the leg's state version at snapshot time; the base
	// tree's epoch is Epoch - len(Journal).
	Epoch uint64
	// ShardID / Shards pin the group this snapshot serves; a restore
	// into a differently shaped cluster fails closed.
	ShardID int
	Shards  int
	// BaseXML is the document at the leg's last compaction
	// (xmltree.XMLString); ordinals are contiguous there, so parse +
	// AssignIDs(nil) reproduces the exact base Dewey IDs.
	BaseXML string
	// Journal is the writes applied since the base, in application
	// order (the same op type a live engine snapshot replays).
	Journal []update.JournalOp
	// TotalNodes and DF are the installed whole-corpus ranking
	// constants at snapshot time.
	TotalNodes int
	DF         map[string]int
}

// groupEnvelope is the gob wire form following the header line.
type groupEnvelope struct {
	Payload  []byte // gob-encoded GroupSnapshot
	Checksum uint32 // crc32(Payload)
}

// EncodeGroup writes the shard-group snapshot layout.
func EncodeGroup(w io.Writer, snap *GroupSnapshot) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return fmt.Errorf("persist: encode group snapshot: %w", err)
	}
	env := groupEnvelope{Payload: buf.Bytes()}
	env.Checksum = crc32.ChecksumIEEE(env.Payload)
	if _, err := fmt.Fprintf(w, "%s %d\n", groupMagic, GroupFormatVersion); err != nil {
		return fmt.Errorf("persist: write group header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return fmt.Errorf("persist: encode group envelope: %w", err)
	}
	return nil
}

// DecodeGroup reads a shard-group snapshot, failing closed on header,
// version, or checksum violations.
func DecodeGroup(r io.Reader) (*GroupSnapshot, error) {
	br := bufio.NewReader(r)
	var m string
	var v int
	if _, err := fmt.Fscanf(br, "%s %d\n", &m, &v); err != nil {
		return nil, fmt.Errorf("persist: read group header: %w", err)
	}
	if m != groupMagic {
		return nil, fmt.Errorf("persist: not a shard-group snapshot (magic %q)", m)
	}
	if v != GroupFormatVersion {
		return nil, fmt.Errorf("persist: unsupported shard-group version %d", v)
	}
	var env groupEnvelope
	if err := gob.NewDecoder(br).Decode(&env); err != nil {
		return nil, fmt.Errorf("persist: decode group envelope: %w", err)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("persist: group checksum mismatch (%08x, want %08x): snapshot corrupt", got, env.Checksum)
	}
	var snap GroupSnapshot
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode group snapshot: %w", err)
	}
	return &snap, nil
}
