/**
 * @file
 * Dense multi-row Hamming-scan engine over a sharded, layout-aware
 * row store.
 *
 * An associative search touches every stored row once per query.
 * PackedRows owns that scan -- one entry point, scan(), returning the
 * k nearest rows (k = 1 is the nearest-row search of D-HAM's
 * comparator tree) with ties resolved to the lowest index -- plus the
 * plain distance helpers, on top of a RowStore (core/row_store.hh)
 * that owns the physical words in one of two layouts:
 *
 *  - row-major (the default): each row is one contiguous record, the
 *    software analogue of the hardware CAM array's dense layout.
 *  - sliced: the first slicePrefix components of every row are
 *    packed contiguously, so the cascade's first pass streams
 *    sequential memory instead of striding row-sized records -- the
 *    layout that keeps the cascade fast at C >= 100k rows.
 *
 * Rows may be partitioned into contiguous shards. scan() runs one
 * bound-pruned loop per shard and folds the shard results in
 * ascending shard order. Pruning lets a shard reject rows without
 * reading all of their words, by two exact mechanisms:
 *
 *  - Early abandonment: once a bound exists (the best distance so
 *    far, or the k-th best), each row's distance runs through the
 *    bounded kernel (distance::hammingBounded), which stops as soon
 *    as the running popcount reaches the bound.
 *  - Sampled-prefix cascade (ScanPolicy::cascadePrefix > 0): first
 *    score every row on its leading cascadePrefix components -- the
 *    paper's structured-sampling prefix -- then seed the bound from
 *    exact full distances and refine only the rows whose prefix
 *    distance beats the running bound.
 *
 * Neither changes an answer (see scan() for why); they only change
 * how much work the scan does, which the ScanStats counters expose
 * (rows_pruned / words_skipped / cascade_survivors in the
 * hdham.metrics.v1 snapshot).
 */

#ifndef HDHAM_CORE_PACKED_ROWS_HH
#define HDHAM_CORE_PACKED_ROWS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/row_store.hh"

namespace hdham
{

/** When a scan may use the early-abandon distance kernels. */
enum class PruneMode
{
    /**
     * Prune only while the running bound is tight enough that the
     * expected word savings beat the bounded kernel's strip-check
     * overhead (bound <= ~0.44 x prefix). Uniform random workloads
     * -- whose best distance hovers near prefix/2 -- scan at full
     * exact-kernel speed; skewed workloads prune aggressively.
     */
    Auto,
    /** Always use the bounded kernel once a bound exists. */
    On,
    /** Exhaustive scan through the exact kernel (pre-prune path). */
    Off,
};

/** Canonical lower-case name of @p mode ("auto", "on", "off"). */
const char *pruneModeName(PruneMode mode);

/**
 * Parse a prune-mode name ("auto", "on", "off") into @p out;
 * returns false (and leaves @p out alone) on anything else.
 */
bool parsePruneMode(const std::string &name, PruneMode *out);

/** How scan() may skip row words. */
struct ScanPolicy
{
    PruneMode prune = PruneMode::Auto;
    /**
     * Cascade stage width in components; 0 disables the cascade.
     * Values >= the scan prefix also disable it (the "prefix" stage
     * would be the full scan). Need not be word-aligned.
     */
    std::size_t cascadePrefix = 0;
};

/**
 * Work avoided by one pruned scan. rowsPruned and cascadeSurvivors
 * depend only on the distance values and the shard partition, so
 * they are identical across kernels, layouts and (summed per query)
 * across batch thread counts; wordsSkipped depends on where the
 * active kernel places its strip checks and is exactly reproducible
 * only for a pinned kernel. A sharded scan sums its shards' stats.
 */
struct ScanStats
{
    /** Rows rejected without computing a full distance (abandoned
     *  by the bounded kernel or filtered by the cascade prefix). */
    std::size_t rowsPruned = 0;
    /** Words of full-width distance work those rejections avoided
     *  (relative to an exhaustive pass at the scan prefix). */
    std::size_t wordsSkipped = 0;
    /** Rows that survived the cascade prefix filter and entered the
     *  refine stage (0 when the cascade is disabled). */
    std::size_t cascadeSurvivors = 0;

    ScanStats &operator+=(const ScanStats &other)
    {
        rowsPruned += other.rowsPruned;
        wordsSkipped += other.wordsSkipped;
        cascadeSurvivors += other.cascadeSurvivors;
        return *this;
    }
};

/** One ranked row of a scan() result. */
struct RowMatch
{
    std::size_t index = 0;
    std::size_t distance = 0;
};

/** What one scan() computes. */
struct ScanRequest
{
    /** Components compared: dim() for a full scan, fewer for
     *  structured sampling. */
    std::size_t prefix = 0;
    /** Rows returned; 1 is the nearest-row search. */
    std::size_t k = 1;
    /** How the scan may skip row words. */
    ScanPolicy policy{};
};

/**
 * Scan engine over a dense store of equal-dimensionality
 * hypervectors.
 */
class PackedRows
{
  public:
    /** Create an empty store for dimension @p dim. */
    explicit PackedRows(std::size_t dim);

    /** Dimensionality of stored rows. */
    std::size_t dim() const { return store.dim(); }

    /** Number of stored rows. */
    std::size_t rows() const { return store.rows(); }

    /** Words per row (including tail padding). */
    std::size_t wordsPerRow() const { return store.wordsPerRow(); }

    /** The resolved physical layout of the backing store. */
    const StoreLayout &layoutSpec() const
    {
        return store.layoutSpec();
    }

    /** Number of row shards (>= 1; 1 until setLayout shards). */
    std::size_t shardCount() const { return store.shardCount(); }

    /**
     * Scan view of shard @p shard -- the raw word pointers and
     * strides the scan loops use. Exposed so the model writer
     * (core/model_file.hh) can stream the physical words straight to
     * disk without materializing rows. @pre shard < shardCount().
     */
    ShardView shardView(std::size_t shard) const
    {
        return store.view(shard);
    }

    /**
     * True when the backing store borrows read-only external memory
     * (an mmap'ed model file; see bindExternal). append/reserve/
     * setLayout throw on such a store.
     */
    bool external() const { return store.external(); }

    /**
     * Point the backing store at caller-managed memory laid out per
     * @p spec (see RowStore::bindExternal). O(shards): no row word
     * is copied or read. The memory must outlive this object.
     */
    void bindExternal(const StoreLayout &spec, std::size_t rowCount,
                      const std::vector<ExternalShard> &ext)
    {
        store.bindExternal(spec, rowCount, ext);
    }

    /**
     * Reserve capacity for @p extraRows more append() calls so bulk
     * training / model loading never reallocates.
     */
    void reserve(std::size_t extraRows);

    /**
     * Re-lay the backing store (layout, shard count, slice prefix;
     * see RowStore::reshape). Word-exact: every scan result is
     * bit-identical before and after. @throws std::invalid_argument
     * for a sliced layout without a slice prefix.
     */
    void setLayout(const StoreLayout &spec);

    /**
     * Append a row; returns its index.
     * @pre hv.dim() == dim().
     */
    std::size_t append(const Hypervector &hv);

    /** Reconstruct row @p row as a Hypervector. */
    Hypervector rowVector(std::size_t row) const;

    /**
     * Hamming distance of row @p row to @p query over the first
     * @p prefix components (dim() by default; pass a smaller value
     * for structured sampling).
     */
    std::size_t distance(std::size_t row, const Hypervector &query,
                         std::size_t prefix) const;

    /**
     * Distances of every row to @p query over the first @p prefix
     * components, written into @p out (resized to rows()).
     */
    void distances(const Hypervector &query, std::size_t prefix,
                   std::vector<std::size_t> &out) const;

    /**
     * Per-stage partial distances of row @p row to @p query in one
     * pass over the row: out[s] is the distance restricted to
     * components [stageEnds[s-1], stageEnds[s]) (from 0 for s = 0).
     * Stage boundaries need not be word-aligned; boundary words are
     * split exactly with bit masks, so ragged stage widths (and
     * ragged dimensions) produce the same counts as summing
     * per-stage hammingPrefix differences. (On a sliced store the
     * row is first materialized into a scratch record; the staged
     * engines keep their stores row-major.)
     * @pre stageEnds is non-decreasing and stageEnds.back() <= dim().
     */
    void stagePrefixDistances(std::size_t row,
                              const Hypervector &query,
                              const std::vector<std::size_t> &stageEnds,
                              std::vector<std::size_t> &out) const;

    /**
     * The req.k rows nearest to @p query over the first req.prefix
     * components, written to @p out sorted by ascending (distance,
     * index); all rows when k >= rows(), none when k = 0. Pruning
     * counters accumulate into @p stats (may be null).
     * @p cascadeScratch, when non-null, holds the cascade's per-row
     * prefix distances so a batched caller avoids a per-query
     * allocation; every shard reuses it. @throws std::logic_error
     * when rows() == 0.
     *
     * The scan runs on the calling thread; batch parallelism comes
     * from chunking queries (core/batch_executor.hh), not from
     * splitting one query. Each shard runs one bound-pruned loop
     * that keeps its exact top min(k, shard rows) and seeds its own
     * bound, so a shard restarts the bound the previous shard had
     * tightened. Shards run in ascending order, and each shard's
     * list folds into @p out as soon as it finishes.
     *
     * Exactness: the answer is the exhaustive scan's, bit for bit,
     * including the lowest-index tie rule, because
     *  - abandon: the bound is either a ceiling (one past any
     *    attainable distance, or B + 1 below) or the exact distance
     *    of an accepted row, and the bounded kernel returns the true
     *    distance whenever it is below the bound. Rows arrive in
     *    index order and enter only with a strictly smaller
     *    distance, so an abandoned row could at best have tied a
     *    lower-indexed row, and lost.
     *  - cascade seed at B + 1: B, the largest exact full distance
     *    among the shard's k best prefix-stage rows, is >= the
     *    shard's final k-th best. A prefix distance lower-bounds the
     *    full distance, so a row filtered because its prefix
     *    distance reaches the bound could at best tie, and lose.
     *    Seeding at B + 1 rather than B keeps distance-B rows
     *    eligible.
     *  - shard fold: every global top-k row is in its shard's top k.
     *    Shard s covers lower indices than shard s + 1 and each list
     *    is ascending, so candidates of equal distance arrive in
     *    ascending global index, and the fold admits a candidate to
     *    a full heap only with a strictly smaller distance.
     */
    void scan(const Hypervector &query, const ScanRequest &req,
              ScanStats *stats, std::vector<RowMatch> &out,
              std::vector<std::size_t> *cascadeScratch = nullptr) const;

  private:
    /** Sharded, layout-aware owner of the packed words. */
    RowStore store;
};

} // namespace hdham

#endif // HDHAM_CORE_PACKED_ROWS_HH
