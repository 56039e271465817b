package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format. Responses carrying query results are framed:
//
//	"XDW1" | uint32 payload length | JSON payload | uint32 CRC-32C
//
// (big-endian integers, CRC over the payload bytes). The frame fails
// closed: truncation, length mismatch, or any bit flip in the payload
// is an error, never a silently wrong score. Scores travel as
// math.Float64bits so a page reassembled from the wire is
// bit-identical to one computed in process; Dewey IDs travel in their
// canonical dotted string form.

// wireMagic opens every framed message.
const wireMagic = "XDW1"

// maxFrame bounds a frame's payload; a length prefix beyond it is
// rejected before any allocation.
const maxFrame = 1 << 28

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame frames v's JSON encoding.
func EncodeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [8]byte
	copy(hdr[:4], wireMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, crcTable))
	_, err = w.Write(sum[:])
	return err
}

// DecodeFrame reads one frame into v, failing closed on any header,
// length, or checksum violation.
func DecodeFrame(r io.Reader, v any) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("dist: truncated frame header: %w", err)
	}
	if string(hdr[:4]) != wireMagic {
		return fmt.Errorf("dist: bad frame magic %q", hdr[:4])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFrame {
		return fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("dist: truncated frame payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return fmt.Errorf("dist: truncated frame checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("dist: frame checksum mismatch: %08x != %08x", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("dist: frame payload: %w", err)
	}
	return nil
}

// Query kinds. Each maps onto one shard.Leg method.
const (
	KindSearch = "search" // doc-order leg: SLCAs + entity results
	KindRanked = "ranked" // score-bounded ranked leg: top page
	KindSubset = "subset" // heap-select the top of an explicit subset
	KindTF     = "tf"     // batched postings-under-subtree counts
)

// QueryRequest is the body of POST /shard/v1/query.
type QueryRequest struct {
	// Epoch is the coordinator's state version; a leg at any other
	// epoch rejects with 409 so a page is never assembled from mixed
	// states.
	Epoch uint64 `json:"epoch"`
	Kind  string `json:"kind"`
	Query string `json:"query"`
	// Terms is the coordinator's tokenization, forwarded so both sides
	// agree without re-tokenizing.
	Terms []string `json:"terms,omitempty"`
	Limit int      `json:"limit,omitempty"`
	// Approx allows the KindRanked consumer's early stop. Requests
	// from coordinators that predate the single ranked consumer also
	// carry a "wand" field; decoding ignores it, and every ranked leg
	// runs the score-bounded consumer.
	Approx bool `json:"approx,omitempty"`
	// FloorBits is a snapshot of the coordinator's shared WAND
	// threshold (Float64bits), the leg's starting score floor. Any
	// snapshot is a lower bound on the global k-th best score, so
	// staleness only costs pruning opportunity, never exactness.
	FloorBits uint64 `json:"floorBits,omitempty"`
	// Subset carries the explicit results for KindSubset (scores
	// unset); Probes the (term, subtree) pairs for KindTF.
	Subset []WireHit   `json:"subset,omitempty"`
	Probes []WireProbe `json:"probes,omitempty"`
}

// WireHit is one result on the wire. IDs are canonical Dewey strings
// resolved against the receiver's tree replica; ScoreBits is the
// ranked score as math.Float64bits (0 on doc-order hits).
type WireHit struct {
	ID        string `json:"id"`
	Match     string `json:"match"`
	Label     string `json:"label"`
	ScoreBits uint64 `json:"scoreBits,omitempty"`
}

// WireProbe asks for the posting count of one term inside one subtree.
type WireProbe struct {
	Term string `json:"term"`
	ID   string `json:"id"`
}

// WireStats mirrors xseek.WANDStats.
type WireStats struct {
	Bounded       bool  `json:"bounded,omitempty"`
	Pruned        int64 `json:"pruned,omitempty"`
	BlocksSkipped int64 `json:"blocksSkipped,omitempty"`
	Terminated    bool  `json:"terminated,omitempty"`
}

// Envelope is a leg's framed query response.
type Envelope struct {
	Epoch uint64 `json:"epoch"`
	// Hits are the leg's results (doc order for KindSearch, rank order
	// for KindRanked/KindSubset).
	Hits []WireHit `json:"hits,omitempty"`
	// SLCAs are the leg's kept (non-spine) SLCAs, document order.
	SLCAs []string `json:"slcas,omitempty"`
	// Boundary are the leg's spine-rooted entity results (document
	// order, scores unset): entities whose subtrees the partition
	// split across groups, which the coordinator merges cross-leg and
	// scores with whole-corpus counts.
	Boundary []WireHit `json:"boundary,omitempty"`
	// Total is the leg's full entity-result count, Boundary excluded
	// (xseek.StreamTotalUnknown after an approximate early stop).
	Total int `json:"total"`
	// ThresholdBits is the leg's final WAND threshold (Float64bits);
	// the coordinator folds it back into the shared threshold.
	ThresholdBits uint64    `json:"thresholdBits,omitempty"`
	Stats         WireStats `json:"stats,omitempty"`
	// Counts answers KindTF, one count per probe.
	Counts []int `json:"counts,omitempty"`
}

// Ranking is the whole-corpus ranking constants the coordinator
// pushes: integers only, so both sides derive bit-identical IDF
// weights with xseek.IDF.
type Ranking struct {
	TotalNodes int            `json:"totalNodes"`
	DF         map[string]int `json:"df"`
}

// WriteOp is the body of POST /shard/v1/write: one entity addition or
// removal, broadcast to every leg under the epoch protocol.
type WriteOp struct {
	// Epoch is the state version this op transforms; a leg already at
	// Epoch+1 treats the op as an idempotent retry.
	Epoch  uint64 `json:"epoch"`
	Remove bool   `json:"remove,omitempty"`
	Ord    int    `json:"ord"`
	XML    string `json:"xml,omitempty"`
	// Ranking is the post-write whole-corpus statistics, computed once
	// at the coordinator and installed by every leg.
	Ranking Ranking `json:"ranking"`
}

// CompactOp is the body of POST /shard/v1/compact. Renumber mirrors
// the in-process compaction decision: true exactly when a removal is
// pending, so both sides rebuild (and renumber) identically.
type CompactOp struct {
	Epoch    uint64 `json:"epoch"`
	Renumber bool   `json:"renumber"`
}

// InfoResponse describes a leg (GET /shard/v1/info).
type InfoResponse struct {
	Epoch   uint64 `json:"epoch"`
	ShardID int    `json:"shardId"`
	Shards  int    `json:"shards"`
	// Ready reports whether the ranking has been installed; until
	// then queries answer 503.
	Ready bool `json:"ready"`
}

// StatsResponse carries a leg's own index statistics
// (GET /shard/v1/stats) for the coordinator's global aggregation.
type StatsResponse struct {
	Epoch    uint64         `json:"epoch"`
	DF       map[string]int `json:"df"`
	Elements int            `json:"elements"`
}
