package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Compact postings layout: every posting list delta-encoded against its
// predecessor in varint blocks of compactBlock postings. The layout is
// position-independent bytes, so a v4 snapshot section can be mmap-ed
// and served in place — a cursor decodes one block at a time, and the
// per-block last IDs double as the skip ladder the PR 6 Seek machinery
// already gallops.
//
// Payload form (all integers uvarint unless noted):
//
//	magic version             // versioned header (see compactMagic)
//	terms elements nLists
//	nLists × regionLen        // 0 = term has no postings here
//	                          // region bytes follow each nonzero len
//
// Region form, one per non-empty list:
//
//	count nBlocks
//	nBlocks × blockLen        // bytes of each block
//	nBlocks × lastID          // last posting of each block, absolute
//	nBlocks × blockMaxTF      // per-block entity tf bound (bounds.go)
//	block bytes, concatenated
//
// Block form (up to compactBlock postings):
//
//	first posting:  len, then len components, absolute
//	rest:           prefixLen suffixLen, then suffix components,
//	                delta-encoded against the previous posting
//
// The lastID array is the directory a cursor navigates blocks by; for
// full blocks its entries equal list[(b+1)*compactBlock-1], exactly
// the sliceIter skip-ladder contract. The blockMaxTF array rides
// beside it so a ranked consumer can bound scores (and skip whole
// blocks) without decoding any block — it is the on-disk form of
// ListBounds.
const compactBlock = skipInterval

// compactMagic is the first uvarint of a compact payload. The
// original layout, written before block maxima existed, began with the
// terms count instead; no plausible corpus reaches ~7.2e16 term
// occurrences, so the sentinel can never be mistaken for one, and a
// payload that does not start with it is refused with
// ErrPreBoundsPayload.
const compactMagic = uint64(1)<<56 | 0x78ac

// compactVersion is the layout revision a payload declares. Version 2
// added the per-block max-tf directory. Unknown versions are rejected
// at open (the caller rebuilds from the tree).
const compactVersion = 2

// ErrPreBoundsPayload reports a compact payload written before block
// maxima existed: it carries no score bounds, so it is not served. The
// caller rebuilds the index from the corpus tree instead.
var ErrPreBoundsPayload = errors.New("index: compact: payload predates block maxima")

// EncodeCompact serializes idx's postings in the compact layout, keyed
// by st's IDs. Terms idx knows that st does not yet are interned into
// st, so encoding K shard indexes against one table yields one shared
// symbol section. The encoding is deterministic for a fixed st.
func EncodeCompact(idx *Index, st *SymbolTable) ([]byte, error) {
	lists := make(map[uint32]PostingList)
	remap := st != idx.symbols
	idx.eachList(func(id uint32, l PostingList) {
		if remap {
			id = st.Intern(idx.symbols.Name(id))
		}
		lists[id] = l
	})
	n := st.Len()
	buf := binary.AppendUvarint(nil, compactMagic)
	buf = binary.AppendUvarint(buf, compactVersion)
	buf = binary.AppendUvarint(buf, uint64(idx.terms))
	buf = binary.AppendUvarint(buf, uint64(idx.elements))
	buf = binary.AppendUvarint(buf, uint64(n))
	var region []byte
	for id := 0; id < n; id++ {
		l := lists[uint32(id)]
		if len(l) == 0 {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		var err error
		region, err = appendListRegion(region[:0], l)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(region)))
		buf = append(buf, region...)
	}
	return buf, nil
}

// appendListRegion appends one list's region to b.
func appendListRegion(b []byte, list PostingList) ([]byte, error) {
	count := len(list)
	nBlocks := (count + compactBlock - 1) / compactBlock
	b = binary.AppendUvarint(b, uint64(count))
	b = binary.AppendUvarint(b, uint64(nBlocks))
	blocks := make([][]byte, nBlocks)
	for bi := 0; bi < nBlocks; bi++ {
		lo, hi := bi*compactBlock, (bi+1)*compactBlock
		if hi > count {
			hi = count
		}
		blk, err := appendBlock(nil, list[lo:hi])
		if err != nil {
			return nil, err
		}
		blocks[bi] = blk
	}
	for _, blk := range blocks {
		b = binary.AppendUvarint(b, uint64(len(blk)))
	}
	for bi := 0; bi < nBlocks; bi++ {
		b = appendCompactID(b, list[min((bi+1)*compactBlock, count)-1])
	}
	for _, m := range blockMaxTFs(list) {
		b = binary.AppendUvarint(b, uint64(m))
	}
	for _, blk := range blocks {
		b = append(b, blk...)
	}
	return b, nil
}

// appendCompactID appends one absolute Dewey ID: length, then
// components.
func appendCompactID(b []byte, id dewey.ID) []byte {
	b = binary.AppendUvarint(b, uint64(len(id)))
	for _, c := range id {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// appendBlock delta-encodes up to compactBlock postings.
func appendBlock(b []byte, list PostingList) ([]byte, error) {
	for i, id := range list {
		for _, c := range id {
			if c < 0 {
				return nil, fmt.Errorf("index: compact: negative Dewey component in %v", id)
			}
		}
		if i == 0 {
			b = appendCompactID(b, id)
			continue
		}
		p := dewey.CommonPrefixLen(list[i-1], id)
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(id)-p))
		for _, c := range id[p:] {
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b, nil
}

// uvarintAt reads one uvarint from data at pos.
func uvarintAt(data []byte, pos int) (uint64, int, error) {
	v, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("index: compact: corrupt varint at offset %d", pos)
	}
	return v, pos + k, nil
}

// compactPostings serves lists straight out of an encoded payload —
// for an mmap-ed snapshot, `data` is the mapping itself and nothing is
// decoded until a query touches a list. The directory (counts, region
// offsets) is the only eager state, one O(nLists) varint walk at open.
type compactPostings struct {
	data   []byte
	counts []int32 // postings per ID; 0 = absent
	offs   []int64 // region offset in data; -1 = absent

	mu             sync.RWMutex
	views          map[uint32]*listView   // parsed region directories
	resident       map[uint32]PostingList // fully decoded lists
	skips          map[uint32]PostingList // ladders of resident long lists
	residentBlocks int
}

// listView is one list's parsed region directory: where each block's
// bytes live and the per-block last IDs that double as the skip
// ladder. Immutable once built.
type listView struct {
	count  int
	starts []int // absolute block offsets in data
	lens   []int // block byte lengths
	lasts  PostingList
	// maxTF and suffix are the decoded per-block tf bounds and their
	// suffix maxima (bounds.go).
	maxTF  []int32
	suffix []int32
}

// OpenCompact attaches a compact payload (EncodeCompact's output) to
// root as a servable index sharing st. The payload must outlive the
// index and is never written to — an mmap-ed file section qualifies.
// Blocks decode lazily as queries touch them. A payload without the
// versioned header fails with ErrPreBoundsPayload.
func OpenCompact(root *xmltree.Node, st *SymbolTable, payload []byte) (*Index, error) {
	head, pos, err := uvarintAt(payload, 0)
	if err != nil {
		return nil, err
	}
	if head != compactMagic {
		return nil, ErrPreBoundsPayload
	}
	ver, pos, err := uvarintAt(payload, pos)
	if err != nil {
		return nil, err
	}
	if ver != compactVersion {
		return nil, fmt.Errorf("index: compact: payload version %d, want %d", ver, compactVersion)
	}
	terms, pos, err := uvarintAt(payload, pos)
	if err != nil {
		return nil, err
	}
	elements, pos, err := uvarintAt(payload, pos)
	if err != nil {
		return nil, err
	}
	n64, pos, err := uvarintAt(payload, pos)
	if err != nil {
		return nil, err
	}
	if n64 > uint64(len(payload)-pos)+1 {
		return nil, fmt.Errorf("index: compact: list count %d exceeds payload", n64)
	}
	n := int(n64)
	cp := &compactPostings{
		data:     payload,
		counts:   make([]int32, n),
		offs:     make([]int64, n),
		views:    make(map[uint32]*listView),
		resident: make(map[uint32]PostingList),
		skips:    make(map[uint32]PostingList),
	}
	for id := 0; id < n; id++ {
		rl64, p, err := uvarintAt(payload, pos)
		if err != nil {
			return nil, err
		}
		pos = p
		if rl64 == 0 {
			cp.offs[id] = -1
			continue
		}
		rl := int(rl64)
		if rl64 > uint64(len(payload)-pos) {
			return nil, fmt.Errorf("index: compact: region for symbol %d truncated", id)
		}
		c, _, err := uvarintAt(payload, pos)
		if err != nil {
			return nil, err
		}
		cp.counts[id] = int32(c)
		cp.offs[id] = int64(pos)
		pos += rl
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("index: compact: %d trailing bytes", len(payload)-pos)
	}
	return &Index{
		symbols:  st,
		postings: make(map[uint32]PostingList),
		root:     root,
		terms:    int(terms),
		elements: int(elements),
		compact:  cp,
	}, nil
}

func (cp *compactPostings) count(id uint32) int {
	if int(id) >= len(cp.counts) {
		return 0
	}
	return int(cp.counts[id])
}

// each visits every non-empty list's ID and count, in ID order,
// without decoding anything.
func (cp *compactPostings) each(f func(id uint32, df int)) {
	for i, c := range cp.counts {
		if c > 0 {
			f(uint32(i), int(c))
		}
	}
}

// view parses (and caches) id's region directory. A nil result means
// the list is absent. Parse failures panic: the payload passed its
// section CRC at load, so a malformed region past that point is memory
// corruption or an encoder bug, and failing loud beats serving a
// silently truncated list.
func (cp *compactPostings) view(id uint32) *listView {
	cp.mu.RLock()
	v := cp.views[id]
	cp.mu.RUnlock()
	if v != nil {
		return v
	}
	if int(id) >= len(cp.offs) || cp.offs[id] < 0 {
		return nil
	}
	v, err := cp.parseView(int(cp.offs[id]))
	if err != nil {
		panic(fmt.Sprintf("index: compact: symbol %d: %v (after checksum verification)", id, err))
	}
	cp.mu.Lock()
	if prior := cp.views[id]; prior != nil {
		v = prior
	} else {
		cp.views[id] = v
	}
	cp.mu.Unlock()
	return v
}

func (cp *compactPostings) parseView(pos int) (*listView, error) {
	count64, pos, err := uvarintAt(cp.data, pos)
	if err != nil {
		return nil, err
	}
	nb64, pos, err := uvarintAt(cp.data, pos)
	if err != nil {
		return nil, err
	}
	count, nb := int(count64), int(nb64)
	if nb != (count+compactBlock-1)/compactBlock {
		return nil, fmt.Errorf("block count %d inconsistent with %d postings", nb, count)
	}
	v := &listView{
		count:  count,
		starts: make([]int, nb),
		lens:   make([]int, nb),
	}
	for bi := 0; bi < nb; bi++ {
		ln, p, err := uvarintAt(cp.data, pos)
		if err != nil {
			return nil, err
		}
		v.lens[bi], pos = int(ln), p
	}
	// lasts: absolute IDs, decoded into one arena.
	v.lasts = make(PostingList, nb)
	var arena []int
	for bi := 0; bi < nb; bi++ {
		ln, p, err := uvarintAt(cp.data, pos)
		if err != nil {
			return nil, err
		}
		pos = p
		start := len(arena)
		for j := uint64(0); j < ln; j++ {
			c, p, err := uvarintAt(cp.data, pos)
			if err != nil {
				return nil, err
			}
			arena, pos = append(arena, int(c)), p
		}
		v.lasts[bi] = dewey.ID(arena[start:len(arena):len(arena)])
	}
	v.maxTF = make([]int32, nb)
	for bi := 0; bi < nb; bi++ {
		m, p, err := uvarintAt(cp.data, pos)
		if err != nil {
			return nil, err
		}
		v.maxTF[bi], pos = int32(m), p
	}
	v.suffix = suffixMax(append([]int32(nil), v.maxTF...))
	for bi := 0; bi < nb; bi++ {
		v.starts[bi] = pos
		pos += v.lens[bi]
		if pos > len(cp.data) {
			return nil, fmt.Errorf("block %d overruns payload", bi)
		}
	}
	return v, nil
}

// blockLen returns how many postings block bi holds.
func (v *listView) blockLen(bi int) int {
	if bi == len(v.starts)-1 {
		if r := v.count % compactBlock; r != 0 {
			return r
		}
	}
	return compactBlock
}

// decodeBlockInto decodes block bi of v into out backed by arena (both
// reset), returning the filled slices for reuse.
func (cp *compactPostings) decodeBlockInto(v *listView, bi int, out PostingList, arena []int) (PostingList, []int) {
	out, arena = out[:0], arena[:0]
	pos, n := v.starts[bi], v.blockLen(bi)
	var prev dewey.ID
	for i := 0; i < n; i++ {
		var plen, slen uint64
		var err error
		if i == 0 {
			slen, pos, err = uvarintAt(cp.data, pos)
		} else {
			plen, pos, err = uvarintAt(cp.data, pos)
			if err == nil {
				slen, pos, err = uvarintAt(cp.data, pos)
			}
		}
		if err == nil && int(plen) > len(prev) {
			err = fmt.Errorf("prefix %d longer than previous ID", plen)
		}
		if err != nil {
			panic(fmt.Sprintf("index: compact: block %d posting %d: %v (after checksum verification)", bi, i, err))
		}
		start := len(arena)
		arena = append(arena, prev[:plen]...)
		for j := uint64(0); j < slen; j++ {
			c, p, err := uvarintAt(cp.data, pos)
			if err != nil {
				panic(fmt.Sprintf("index: compact: block %d posting %d: %v (after checksum verification)", bi, i, err))
			}
			arena, pos = append(arena, int(c)), p
		}
		id := dewey.ID(arena[start:len(arena):len(arena)])
		out = append(out, id)
		prev = id
	}
	return out, arena
}

// materialize decodes id's whole list into the heap, caching it (and
// its skip ladder, rebuilt from the block lasts) for every later
// Lookup. Absent lists return nil.
func (cp *compactPostings) materialize(id uint32) PostingList {
	cp.mu.RLock()
	l, ok := cp.resident[id]
	cp.mu.RUnlock()
	if ok {
		return l
	}
	v := cp.view(id)
	if v == nil {
		return nil
	}
	list := make(PostingList, 0, v.count)
	arena := make([]int, 0, v.count*4)
	var blk PostingList
	var blkArena []int
	for bi := range v.starts {
		blk, blkArena = cp.decodeBlockInto(v, bi, blk, blkArena)
		for _, id := range blk {
			start := len(arena)
			arena = append(arena, id...)
			list = append(list, dewey.ID(arena[start:len(arena):len(arena)]))
		}
	}
	cp.mu.Lock()
	if prior, ok := cp.resident[id]; ok {
		list = prior
	} else {
		cp.resident[id] = list
		cp.residentBlocks += len(v.starts)
		if v.count >= skipMinLen {
			cp.skips[id] = v.lasts[:v.count/skipInterval]
		}
	}
	cp.mu.Unlock()
	return list
}

// iter returns a cursor over id's list: the materialized list when
// resident (with its ladder), else a lazily-decoding blockIter.
func (cp *compactPostings) iter(id uint32) Iter {
	cp.mu.RLock()
	l, ok := cp.resident[id]
	sk := cp.skips[id]
	cp.mu.RUnlock()
	if ok {
		if len(l) == 0 {
			return EmptyIter()
		}
		return &sliceIter{list: l, skips: sk}
	}
	v := cp.view(id)
	if v == nil {
		return EmptyIter()
	}
	return &blockIter{cp: cp, v: v, blk: -1}
}

// bounds returns id's score-bound metadata straight from the payload
// directory — no block is decoded. An absent list reports empty
// bounds.
func (cp *compactPostings) bounds(id uint32) *ListBounds {
	v := cp.view(id)
	if v == nil {
		return emptyBounds
	}
	return &ListBounds{lasts: v.lasts, suffix: v.suffix}
}

// skipBlocks mirrors Index.SkipBlocks for compact lists: the ladder a
// materialized copy would carry.
func (cp *compactPostings) skipBlocks(id uint32) int {
	c := cp.count(id)
	if c < skipMinLen {
		return 0
	}
	return c / skipInterval
}

// blockIter cursors over a compact list without materializing it: at
// most one block (plus one PredOf scratch block) is decoded at a time,
// and Seek jumps blocks via the lasts directory the way sliceIter
// gallops its ladder. Satisfies the full Iter contract of iter.go.
type blockIter struct {
	cp *compactPostings
	v  *listView

	blk int // decoded block index; -1 before first decode, nBlocks when exhausted
	buf PostingList
	pos int // cursor within buf

	// PredOf scratch: a second decoded block, so probing a neighbour
	// never disturbs the cursor's own block.
	pblk int
	pbuf PostingList
}

// load decodes block bi into the cursor buffer. Every block decodes
// into fresh memory: returned IDs may be retained by callers (the
// SLCA pipeline does), so the buffers are never reused.
func (it *blockIter) load(bi int) {
	it.buf, _ = it.cp.decodeBlockInto(it.v, bi, nil, nil)
	it.blk, it.pos = bi, 0
}

// ensure makes the cursor sit on a live element, advancing across
// block boundaries; reports false when exhausted.
func (it *blockIter) ensure() bool {
	nb := len(it.v.starts)
	if it.blk < 0 {
		it.load(0)
	}
	for it.pos >= len(it.buf) {
		if it.blk+1 >= nb {
			it.blk, it.buf, it.pos = nb, it.buf[:0], 0
			return false
		}
		it.load(it.blk + 1)
	}
	return true
}

func (it *blockIter) Peek() (dewey.ID, bool) {
	if !it.ensure() {
		return nil, false
	}
	return it.buf[it.pos], true
}

func (it *blockIter) Next() (dewey.ID, bool) {
	if !it.ensure() {
		return nil, false
	}
	v := it.buf[it.pos]
	it.pos++
	return v, true
}

func (it *blockIter) Seek(id dewey.ID) (dewey.ID, bool) {
	v, ok := it.Peek()
	if !ok {
		return nil, false
	}
	if v.Compare(id) >= 0 {
		return v, true
	}
	// Find the first block (from the cursor's) whose last element can
	// hold the target; everything before it is < id.
	lasts := it.v.lasts
	b := it.blk + sort.Search(len(lasts)-it.blk, func(k int) bool {
		return lasts[it.blk+k].Compare(id) >= 0
	})
	if b >= len(lasts) {
		it.blk, it.buf, it.pos = len(lasts), it.buf[:0], 0
		return nil, false
	}
	if b != it.blk {
		it.load(b)
	}
	it.pos += sort.Search(len(it.buf)-it.pos, func(k int) bool {
		return it.buf[it.pos+k].Compare(id) >= 0
	})
	return it.Peek()
}

// curBlock returns the block Peek would serve the next element from:
// the decoded block while it has elements left, else the one after it.
// Clamped to nBlocks when exhausted.
func (it *blockIter) curBlock() int {
	nb := len(it.v.starts)
	cur := it.blk
	if cur < 0 {
		return 0
	}
	if it.pos >= len(it.buf) && cur < nb {
		cur++
	}
	return cur
}

// BlockMaxTF returns the encoded tf bound of the cursor's current
// block: no single non-root result subtree intersecting the block (or
// any later one, after taking the running suffix max) holds more than
// this many of the list's postings. 0 when the cursor is exhausted.
func (it *blockIter) BlockMaxTF() int {
	cur := it.curBlock()
	if cur >= len(it.v.maxTF) {
		return 0
	}
	return int(it.v.maxTF[cur])
}

// SkipBlock advances the cursor to the first posting of the block
// after the current one, without decoding anything in between — the
// WAND move for a block whose BlockMaxTF cannot change the top-k.
// Reports false (leaving the cursor exhausted) when no block remains.
func (it *blockIter) SkipBlock() bool {
	nb := len(it.v.starts)
	cur := it.curBlock()
	if cur+1 >= nb {
		it.blk, it.buf, it.pos = nb, it.buf[:0], 0
		return false
	}
	it.load(cur + 1)
	return true
}

func (it *blockIter) PredOf(id dewey.ID) (dewey.ID, bool) {
	lasts := it.v.lasts
	nb := len(lasts)
	// First block that could contain an element >= id.
	b := sort.Search(nb, func(k int) bool { return lasts[k].Compare(id) >= 0 })
	if b == nb {
		// Every element is < id; the overall last is the predecessor.
		return lasts[nb-1], true
	}
	// Block b holds the first element >= id (lasts[b-1] < id bounds the
	// earlier blocks away). Probe it without moving the cursor.
	var blk PostingList
	switch {
	case b == it.blk:
		// The cursor's buffer always holds the whole decoded block;
		// pos only indexes into it.
		blk = it.buf
	case b == it.pblk && len(it.pbuf) > 0:
		blk = it.pbuf
	default:
		it.pbuf, _ = it.cp.decodeBlockInto(it.v, b, nil, nil)
		it.pblk = b
		blk = it.pbuf
	}
	k := sort.Search(len(blk), func(i int) bool { return blk[i].Compare(id) >= 0 })
	if k > 0 {
		return blk[k-1], true
	}
	if b == 0 {
		return nil, false
	}
	return lasts[b-1], true
}
