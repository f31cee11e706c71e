package lsm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"github.com/llm-db/mlkv-go/internal/util"
)

// SSTable layout (all little-endian):
//
//	data blocks   — blockEntries records of (key:8 | meta:8 | value:vs)
//	index         — first key of each block (8 bytes per block)
//	bloom filter  — bloomBitsPerKey bits per key, 4 probe hashes
//	footer        — entries:8 | blocks:8 | bloomBytes:8 | valueSize:8 | magic:8
//
// Records within and across blocks are sorted by key; meta bit 0 marks a
// tombstone.

const (
	blockEntries    = 64
	bloomBitsPerKey = 10
	bloomProbes     = 4
	tableMagic      = uint64(0x4d4c4b564c534d31) // "MLKVLSM1"
	footerSize      = 40
	metaTombstone   = uint64(1)
)

// tableRec is one record during building or merging.
type tableRec struct {
	key  uint64
	val  []byte
	tomb bool
}

// sstable is an open, immutable on-disk table.
type sstable struct {
	num     uint64 // file number (cache identity)
	path    string
	file    *os.File
	entries int
	blocks  int
	vs      int
	minKey  uint64
	maxKey  uint64
	index   []uint64 // first key per block
	bloom   []byte
	recSize int
}

// writeTable persists recs (sorted, deduplicated) and returns the opened
// table.
func writeTable(path string, num uint64, recs []tableRec, vs int) (*sstable, error) {
	recSize := 16 + vs
	nBlocks := (len(recs) + blockEntries - 1) / blockEntries
	bloomBytes := (len(recs)*bloomBitsPerKey + 7) / 8
	if bloomBytes == 0 {
		bloomBytes = 1
	}
	bloom := make([]byte, bloomBytes)
	buf := make([]byte, 0, len(recs)*recSize+nBlocks*8+bloomBytes+footerSize)
	scratch := make([]byte, 8)
	index := make([]uint64, 0, nBlocks)
	for i, r := range recs {
		if i%blockEntries == 0 {
			index = append(index, r.key)
		}
		binary.LittleEndian.PutUint64(scratch, r.key)
		buf = append(buf, scratch...)
		meta := uint64(0)
		if r.tomb {
			meta = metaTombstone
		}
		binary.LittleEndian.PutUint64(scratch, meta)
		buf = append(buf, scratch...)
		buf = append(buf, r.val[:vs]...)
		bloomSet(bloom, r.key)
	}
	for _, k := range index {
		binary.LittleEndian.PutUint64(scratch, k)
		buf = append(buf, scratch...)
	}
	buf = append(buf, bloom...)
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:], uint64(len(recs)))
	binary.LittleEndian.PutUint64(footer[8:], uint64(nBlocks))
	binary.LittleEndian.PutUint64(footer[16:], uint64(bloomBytes))
	binary.LittleEndian.PutUint64(footer[24:], uint64(vs))
	binary.LittleEndian.PutUint64(footer[32:], tableMagic)
	buf = append(buf, footer...)
	// Durable before it is named: the MANIFEST that lists this table is
	// written (and the WAL it replaces retired) only after this returns,
	// so a crash can never leave the MANIFEST naming a table that did not
	// reach disk.
	if err := util.AtomicWriteFile(path, buf, 0o644); err != nil {
		return nil, fmt.Errorf("lsm: write table: %w", err)
	}
	return openTable(path, num, vs)
}

// openTable maps an existing table file.
func openTable(path string, num uint64, vs int) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, st.Size()-footerSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read footer: %w", err)
	}
	if binary.LittleEndian.Uint64(footer[32:]) != tableMagic {
		f.Close()
		return nil, fmt.Errorf("lsm: %s: bad magic", path)
	}
	t := &sstable{
		num:     num,
		path:    path,
		file:    f,
		entries: int(binary.LittleEndian.Uint64(footer[0:])),
		blocks:  int(binary.LittleEndian.Uint64(footer[8:])),
		vs:      int(binary.LittleEndian.Uint64(footer[24:])),
		recSize: 16 + int(binary.LittleEndian.Uint64(footer[24:])),
	}
	if t.vs != vs {
		f.Close()
		return nil, fmt.Errorf("lsm: %s: value size %d != %d", path, t.vs, vs)
	}
	bloomBytes := int(binary.LittleEndian.Uint64(footer[16:]))
	meta := make([]byte, t.blocks*8+bloomBytes)
	if _, err := f.ReadAt(meta, int64(t.entries*t.recSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read index: %w", err)
	}
	t.index = make([]uint64, t.blocks)
	for i := range t.index {
		t.index[i] = binary.LittleEndian.Uint64(meta[i*8:])
	}
	t.bloom = meta[t.blocks*8:]
	if t.entries > 0 {
		t.minKey = t.index[0]
		// Max key: read the last record's key.
		last := make([]byte, 8)
		if _, err := f.ReadAt(last, int64((t.entries-1)*t.recSize)); err != nil {
			f.Close()
			return nil, err
		}
		t.maxKey = binary.LittleEndian.Uint64(last)
	}
	return t, nil
}

func (t *sstable) close() error { return t.file.Close() }

// mayContain consults the Bloom filter.
func (t *sstable) mayContain(key uint64) bool {
	if key < t.minKey || key > t.maxKey {
		return false
	}
	return bloomTest(t.bloom, key)
}

// blockLen returns the byte length of block b.
func (t *sstable) blockLen(b int) int {
	n := blockEntries
	if b == t.blocks-1 {
		n = t.entries - b*blockEntries
	}
	return n * t.recSize
}

// readBlock fetches block b, through cache if provided.
func (t *sstable) readBlock(b int, cache *blockCache) ([]byte, error) {
	if cache != nil {
		if blk, ok := cache.get(t.num, b); ok {
			return blk, nil
		}
	}
	blk := make([]byte, t.blockLen(b))
	if _, err := t.file.ReadAt(blk, int64(b*blockEntries*t.recSize)); err != nil {
		return nil, fmt.Errorf("lsm: read block %d of %s: %w", b, t.path, err)
	}
	if cache != nil {
		cache.put(t.num, b, blk)
	}
	return blk, nil
}

// get searches the table for key.
func (t *sstable) get(key uint64, dst []byte, cache *blockCache) (ok, tomb bool, err error) {
	if t.entries == 0 || !t.mayContain(key) {
		return false, false, nil
	}
	// Find the last block whose first key <= key.
	b := sort.Search(len(t.index), func(i int) bool { return t.index[i] > key }) - 1
	if b < 0 {
		return false, false, nil
	}
	blk, err := t.readBlock(b, cache)
	if err != nil {
		return false, false, err
	}
	n := len(blk) / t.recSize
	i := sort.Search(n, func(i int) bool {
		return binary.LittleEndian.Uint64(blk[i*t.recSize:]) >= key
	})
	if i == n || binary.LittleEndian.Uint64(blk[i*t.recSize:]) != key {
		return false, false, nil
	}
	off := i * t.recSize
	if binary.LittleEndian.Uint64(blk[off+8:])&metaTombstone != 0 {
		return true, true, nil
	}
	copy(dst, blk[off+16:off+t.recSize])
	return true, false, nil
}

// iterate streams the table's records in key order.
func (t *sstable) iterate(fn func(tableRec) error) error {
	for b := 0; b < t.blocks; b++ {
		blk, err := t.readBlock(b, nil)
		if err != nil {
			return err
		}
		n := len(blk) / t.recSize
		for i := 0; i < n; i++ {
			off := i * t.recSize
			r := tableRec{
				key:  binary.LittleEndian.Uint64(blk[off:]),
				tomb: binary.LittleEndian.Uint64(blk[off+8:])&metaTombstone != 0,
				val:  append([]byte(nil), blk[off+16:off+t.recSize]...),
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func bloomSet(filter []byte, key uint64) {
	h := util.Mix64(key)
	d := h >> 32
	bits := uint64(len(filter)) * 8
	for i := 0; i < bloomProbes; i++ {
		bit := h % bits
		filter[bit/8] |= 1 << (bit % 8)
		h += d + uint64(i)
	}
}

func bloomTest(filter []byte, key uint64) bool {
	h := util.Mix64(key)
	d := h >> 32
	bits := uint64(len(filter)) * 8
	for i := 0; i < bloomProbes; i++ {
		bit := h % bits
		if filter[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		h += d + uint64(i)
	}
	return true
}
