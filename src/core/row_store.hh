/**
 * @file
 * Sharded, layout-abstracted word storage for multi-row scans.
 *
 * PackedRows originally stored every row in one contiguous row-major
 * word array scanned as a single logical loop. That layout stops
 * scaling along the class axis: at C >= 100k rows the sampled-prefix
 * cascade (ScanPolicy::cascadePrefix) reads a few leading words of
 * every row and then strides past the rest, so the hot first pass
 * touches one cache line per row out of dozens.
 *
 * RowStore factors the physical layout out of the scan logic. It
 * owns the words behind PackedRows in one of two layouts:
 *
 *  - RowLayout::RowMajor -- the original layout: each shard holds
 *    its rows as contiguous rowWords-word records in a single "head"
 *    region. Bit-identical in memory (per shard) to the seed
 *    PackedRows array.
 *  - RowLayout::Sliced -- a transposed-by-block layout: the first
 *    sliceWords words of every row are packed back to back in the
 *    shard's head region, and each row's remaining words live in a
 *    separate tail region. A cascade whose prefix fits the slice
 *    streams the head region sequentially -- the scan reads exactly
 *    the bytes it uses -- and only refine-stage survivors touch the
 *    tail region.
 *
 * Rows are additionally partitioned into contiguous shards
 * (StoreLayout::shards), the partition an hdham.model.v1 file
 * records in its shard table. A scan runs one bound-pruned loop per
 * shard, one shard after another on the calling thread, and merges
 * the shard winners; because every shard covers a contiguous
 * ascending row range, merging in shard order with a strict
 * (distance, index) rule preserves the global lowest-index tie rule
 * bit for bit. Each shard restarts its bound, so more shards only
 * cost scan work.
 *
 * Conversions between layouts/shard counts are exact: reshape() only
 * moves words, never changes them, and a round trip through any
 * sequence of layouts reproduces every row bit for bit (pinned by
 * tests/core/row_store_test.cc).
 *
 * A RowStore can also *borrow* its words instead of owning them:
 * bindExternal() points every shard at caller-managed memory (an
 * mmap'ed hdham.model.v1 file; see core/model_file.hh) without
 * copying a single row word. A bound store serves every scan through
 * the same ShardViews as an owned store -- the scan loops cannot
 * tell the difference -- but it is read-only: append(), reserve()
 * and reshape() throw std::logic_error, because the backing mapping
 * is immutable and may be shared by other processes. The external
 * memory must stay mapped and unchanged for the store's lifetime.
 */

#ifndef HDHAM_CORE_ROW_STORE_HH
#define HDHAM_CORE_ROW_STORE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hdham
{

/** Physical row layout of a RowStore. */
enum class RowLayout
{
    /** Contiguous rowWords-word records per shard (the seed layout). */
    RowMajor,
    /**
     * Prefix-sliced: the first slicePrefix components (rounded up to
     * whole words) of every row are packed contiguously per shard;
     * each row's remaining words live in a separate tail region.
     */
    Sliced,
};

/** Canonical lower-case name of @p layout ("row", "sliced"). */
const char *rowLayoutName(RowLayout layout);

/**
 * Parse a layout name ("row", "sliced") into @p out; returns false
 * (and leaves @p out alone) on anything else.
 */
bool parseRowLayout(const std::string &name, RowLayout *out);

/** Requested physical organisation of a RowStore. */
struct StoreLayout
{
    RowLayout layout = RowLayout::RowMajor;
    /**
     * Contiguous row shards scanned independently; 0 means "one per
     * hardware thread". Clamped to [1, rows] on reshape.
     */
    std::size_t shards = 1;
    /**
     * Sliced layout only: components in the contiguous head slice,
     * rounded up to whole words. Typically the cascade prefix, so
     * the cascade's first pass streams sequential memory. Must be
     * > 0 when layout == Sliced; ignored for RowMajor.
     */
    std::size_t slicePrefix = 0;
};

/**
 * Read-only view of one shard for a scan loop. Row r of the shard
 * (0 <= r < rows, global index firstRow + r):
 *
 *  - sliceBits == 0 (row-major): all words at head + r * headStride.
 *  - sliceBits > 0 (sliced): words [0, sliceBits/64) at
 *    head + r * headStride, the rest at tail + r * tailStride.
 *    sliceBits is always a multiple of 64, so a query word pointer
 *    offsets by sliceBits/64 across the seam.
 */
struct ShardView
{
    const std::uint64_t *head = nullptr;
    std::size_t headStride = 0;
    const std::uint64_t *tail = nullptr;
    std::size_t tailStride = 0;
    /** Global index of this shard's row 0. */
    std::size_t firstRow = 0;
    /** Rows in this shard. */
    std::size_t rows = 0;
    /** Slice boundary in bits; 0 for row-major shards. */
    std::size_t sliceBits = 0;
};

/**
 * One shard of caller-managed words for RowStore::bindExternal().
 * Pointer semantics match ShardView: head holds whole rows for a
 * row-major layout, the per-row slice words for a sliced one (tail
 * then holds the per-row remainder; null for row-major).
 */
struct ExternalShard
{
    const std::uint64_t *head = nullptr;
    const std::uint64_t *tail = nullptr;
    /** Global index of this shard's row 0. */
    std::size_t firstRow = 0;
    /** Rows in this shard. */
    std::size_t rows = 0;
};

/**
 * Sharded, layout-aware owner of the packed row words.
 */
class RowStore
{
  public:
    /** Create an empty row-major single-shard store. */
    explicit RowStore(std::size_t dim);

    /** Dimensionality of stored rows (bits). */
    std::size_t dim() const { return numBits; }

    /** Number of stored rows. */
    std::size_t rows() const { return numRows; }

    /** Words per row (including tail padding). */
    std::size_t wordsPerRow() const { return rowWords; }

    /** The resolved layout (shards >= 1 after any reshape). */
    const StoreLayout &layoutSpec() const { return spec; }

    /** Words in the head slice per row (0 = full rows in head). */
    std::size_t sliceWords() const { return headSliceWords; }

    /** Number of shards (>= 1). */
    std::size_t shardCount() const { return shards.size(); }

    /**
     * True when the store borrows caller-managed memory
     * (bindExternal) instead of owning its words. External stores
     * are read-only: append/reserve/reshape throw.
     */
    bool external() const { return isExternal; }

    /** Scan view of shard @p shard. @pre shard < shardCount(). */
    ShardView view(std::size_t shard) const;

    /**
     * Grow the last shard's capacity so the next @p extraRows
     * append() calls never reallocate (bulk training / model load).
     */
    void reserve(std::size_t extraRows);

    /**
     * Append one row (exactly wordsPerRow() words, tail padding
     * included); returns its global index. Rows always land in the
     * last shard, so earlier shards' row ranges never move.
     */
    std::size_t append(const std::uint64_t *row);

    /** Materialize row @p row into @p dst (wordsPerRow() words). */
    void copyRow(std::size_t row, std::uint64_t *dst) const;

    /** Shard holding @p row and its local index within that shard. */
    void locate(std::size_t row, std::size_t *shard,
                std::size_t *local) const;

    /**
     * Re-lay the store: partition rows into @p spec.shards
     * contiguous shards (0 = one per hardware thread) in the
     * requested layout. Word-exact: every row reads back bit for
     * bit afterwards. @throws std::invalid_argument when
     * spec.layout == Sliced and spec.slicePrefix == 0.
     */
    void reshape(const StoreLayout &spec);

    /**
     * Replace the store's contents with @p rowCount rows borrowed
     * from caller-managed memory (typically an mmap'ed model file):
     * shard s's words live at ext[s].head / ext[s].tail for the
     * store's lifetime, laid out per @p spec exactly as an owned
     * store's would be. No row word is copied, read or validated --
     * binding is O(shards), which is what gives the model loader its
     * zero-deserialization cold start. The store becomes external():
     * every scan works unchanged, but append/reserve/reshape throw.
     *
     * @throws std::invalid_argument when spec/ext are inconsistent
     * (sliced without slicePrefix, shard ranges not a contiguous
     * ascending cover of [0, rowCount), missing tail pointers).
     */
    void bindExternal(const StoreLayout &spec, std::size_t rowCount,
                      const std::vector<ExternalShard> &ext);

  private:
    struct Shard
    {
        std::size_t firstRow = 0;
        std::size_t rows = 0;
        /** Row-major: full records. Sliced: per-row head slices. */
        std::vector<std::uint64_t> head;
        /** Sliced only: per-row words beyond the slice. */
        std::vector<std::uint64_t> tail;
        /** External stores: borrowed words instead of the vectors. */
        const std::uint64_t *extHead = nullptr;
        const std::uint64_t *extTail = nullptr;

        const std::uint64_t *headData() const
        {
            return extHead != nullptr ? extHead : head.data();
        }
        const std::uint64_t *tailData() const
        {
            return extHead != nullptr ? extTail : tail.data();
        }
    };

    std::size_t tailWords() const { return rowWords - headSliceWords; }

    /** Throw std::logic_error when external() (read-only store). */
    void requireOwned(const char *what) const;

    std::size_t numBits;
    std::size_t rowWords;
    std::size_t numRows = 0;
    StoreLayout spec;
    /** 0 in row-major layout (head holds whole rows). */
    std::size_t headSliceWords = 0;
    bool isExternal = false;
    std::vector<Shard> shards;
};

} // namespace hdham

#endif // HDHAM_CORE_ROW_STORE_HH
