#include "core/packed_rows.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/distance.hh"
#include "core/trace.hh"

namespace hdham
{

namespace
{

/** Words a full-width pass over @p prefix bits reads per row. */
inline std::size_t
wordsFor(std::size_t prefix)
{
    return (prefix + Hypervector::bitsPerWord - 1) /
           Hypervector::bitsPerWord;
}

/**
 * Auto-mode pruning threshold. A row that loses to bound B abandons,
 * in expectation, once its running count reaches B -- about
 * B / (prefix / 2) of the way through a random far row -- so the
 * fraction of the row skipped shrinks as B approaches prefix / 2.
 * Below 7/16 x prefix the expected savings comfortably exceed the
 * bounded kernel's strip-check overhead; above it (uniform random
 * workloads, whose best hovers near prefix / 2) the exact kernel is
 * the faster choice and pruning would only add overhead.
 */
inline std::size_t
autoCutoff(std::size_t prefix)
{
    return prefix * 7 / 16;
}

/**
 * Bounds at or below this use the bounded kernel; larger bounds use
 * the exact kernel. PruneMode::On forces the bounded kernel for any
 * attainable distance. @pre policy.prune != PruneMode::Off.
 */
inline std::size_t
cutoffFor(const ScanPolicy &policy, std::size_t prefix)
{
    return policy.prune == PruneMode::On ? prefix + 1
                                         : autoCutoff(prefix);
}

/** Word pointer to local row @p r's head stride. */
inline const std::uint64_t *
headPtr(const ShardView &v, std::size_t r)
{
    return v.head + r * v.headStride;
}

/** Word pointer to local row @p r's tail stride (sliced shards). */
inline const std::uint64_t *
tailPtr(const ShardView &v, std::size_t r)
{
    return v.tail + r * v.tailStride;
}

/**
 * True when a @p prefix-wide distance must read past the shard's
 * slice seam. Row-major shards (sliceBits == 0) never do; sliced
 * shards only when the prefix exceeds the slice, in which case the
 * split kernels compose head and tail strides exactly.
 */
inline bool
crossesSeam(const ShardView &v, std::size_t prefix)
{
    return v.sliceBits != 0 && prefix > v.sliceBits;
}

/** Exact distance of local row @p r under the shard's layout. */
inline std::size_t
rowDist(const ShardView &v, std::size_t r, const std::uint64_t *q,
        std::size_t prefix, distance::HammingFn fn)
{
    if (!crossesSeam(v, prefix))
        return fn(headPtr(v, r), q, prefix);
    return distance::splitHamming(headPtr(v, r), tailPtr(v, r), q,
                                  v.sliceBits, prefix, fn);
}

/** Bound-exact distance of local row @p r under the shard's layout. */
inline std::size_t
rowDistBounded(const ShardView &v, std::size_t r,
               const std::uint64_t *q, std::size_t prefix,
               std::size_t bound, std::size_t *wordsRead,
               distance::BoundedHammingFn bfn)
{
    if (!crossesSeam(v, prefix))
        return bfn(headPtr(v, r), q, prefix, bound, wordsRead);
    return distance::splitHammingBounded(headPtr(v, r), tailPtr(v, r),
                                         q, v.sliceBits, prefix,
                                         bound, wordsRead, bfn);
}

/**
 * Distances of every row in the shard over the first @p prefix
 * components, written to out[0 .. v.rows). The head-only loop walks
 * one stride sequentially -- on a sliced shard whose slice covers the
 * prefix this is the cascade's streaming pass.
 */
inline void
shardDistances(const ShardView &v, const std::uint64_t *q,
               std::size_t prefix, distance::HammingFn fn,
               std::size_t *out)
{
    if (!crossesSeam(v, prefix)) {
        const std::uint64_t *p = v.head;
        for (std::size_t r = 0; r < v.rows; ++r) {
            out[r] = fn(p, q, prefix);
            p += v.headStride;
        }
        return;
    }
    for (std::size_t r = 0; r < v.rows; ++r)
        out[r] = rowDist(v, r, q, prefix, fn);
}

/** Worse-first (distance, index) ordering: heap top = k-th best. */
inline bool
worseMatch(const RowMatch &a, const RowMatch &b)
{
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.index < b.index;
}

/**
 * k = 1 collector: the running minimum and the row that set it --
 * no heap, no vector. accept() only ever sees a distance below the
 * current bound, so the first row in index order attaining the
 * minimum is the one kept.
 */
class BestRow
{
  public:
    BestRow(std::vector<RowMatch> &, std::size_t) {}

    /** Take @p row at distance @p d; returns the new bound. */
    std::size_t accept(std::size_t row, std::size_t d, std::size_t)
    {
        best = {row, d};
        return d;
    }

    /** The rows collected so far, in no particular order. */
    std::span<const RowMatch> taken() const { return {&best, 1}; }

    /** Write the result to @p out, ascending by (distance, index). */
    void finish(std::vector<RowMatch> &out) const
    {
        out.clear();
        out.push_back(best);
    }

  private:
    RowMatch best;
};

/**
 * k > 1 collector: a worse-first heap of capacity @p kk kept in the
 * caller's vector. Its top is the running k-th best, so the bound is
 * the ceiling until the heap fills and the top's distance after.
 * Rows arrive in ascending index order and enter a full heap only
 * with a strictly smaller distance -- the same tie rule as k = 1.
 */
class TopRows
{
  public:
    TopRows(std::vector<RowMatch> &heap, std::size_t kk)
        : heap(heap), kk(kk)
    {
        heap.clear();
    }

    /** Take @p row at distance @p d; returns the new bound. */
    std::size_t accept(std::size_t row, std::size_t d,
                       std::size_t ceiling)
    {
        if (heap.size() < kk) {
            heap.push_back({row, d});
            std::push_heap(heap.begin(), heap.end(), worseMatch);
            return heap.size() < kk ? ceiling : heap.front().distance;
        }
        std::pop_heap(heap.begin(), heap.end(), worseMatch);
        heap.back() = {row, d};
        std::push_heap(heap.begin(), heap.end(), worseMatch);
        return heap.front().distance;
    }

    /** The rows collected so far, in heap order. */
    std::span<const RowMatch> taken() const { return heap; }

    /** Sort the heap (which is @p out) by ascending (distance, index). */
    void finish(std::vector<RowMatch> &) const
    {
        std::sort_heap(heap.begin(), heap.end(), worseMatch);
    }

  private:
    std::vector<RowMatch> &heap;
    std::size_t kk;
};

/** What every shard of one scan() shares. */
struct ShardScan
{
    const std::uint64_t *q;
    std::size_t prefix;
    /** Rows kept per shard: min(k, rows()). */
    std::size_t kk;
    ScanPolicy policy;
    /** False when the caller takes no counters; the abandon path
     *  then skips its tally. */
    bool count;
    distance::HammingFn fn;
    distance::BoundedHammingFn bfn;
};

/**
 * The row loop of one shard's scan: every row in index order against
 * a bound that starts at @p ceiling and tightens as @p Top accepts
 * rows; bounds below @p boundedBelow use the bounded kernel. With
 * @p Cascade, @p prefixDist holds each row's prefix-stage distance,
 * and a row whose prefix distance already reaches the bound is
 * filtered; filtered rows are counted after the loop as the rows
 * that did not survive. Cascade is a template parameter so the loop
 * without a cascade carries no per-row branch on it.
 *
 * The view, the scan's constants, the bound and the counters are
 * locals (the bound changes only when a row is accepted), so nothing
 * the loop reads or updates is reachable from the kernel calls.
 */
template <class Top, bool Cascade>
ScanStats
refineRows(const ShardView &view, const ShardScan &scan,
           std::size_t boundedBelow, std::size_t ceiling,
           const std::size_t *prefixDist, std::size_t cascadeWords,
           std::vector<RowMatch> &out)
{
    const ShardView v = view;
    const std::uint64_t *q = scan.q;
    const std::size_t prefix = scan.prefix;
    const bool count = scan.count;
    const distance::HammingFn fn = scan.fn;
    const distance::BoundedHammingFn bfn = scan.bfn;
    const std::size_t rowSpan = wordsFor(prefix);
    std::size_t survivors = 0;
    std::size_t abandoned = 0;
    std::size_t abandonSkipped = 0;
    Top top(out, scan.kk);
    std::size_t bound = ceiling;
    for (std::size_t row = 0; row < v.rows; ++row) {
        if (Cascade) {
            if (prefixDist[row] >= bound)
                continue;
            ++survivors;
        }
        std::size_t d;
        if (bound < boundedBelow) {
            std::size_t wordsRead = 0;
            d = rowDistBounded(v, row, q, prefix, bound, &wordsRead,
                               bfn);
            if (d == distance::kAbandoned) {
                if (count) {
                    ++abandoned;
                    abandonSkipped += rowSpan - wordsRead;
                }
                continue;
            }
        } else {
            d = rowDist(v, row, q, prefix, fn);
            if (d >= bound)
                continue;
        }
        bound = top.accept(row, d, ceiling);
    }
    top.finish(out);
    const std::size_t filtered = Cascade ? v.rows - survivors : 0;
    return {filtered + abandoned,
            filtered * (rowSpan - cascadeWords) + abandonSkipped,
            survivors};
}

/**
 * The bound-pruned scan over one shard: its exact top min(kk,
 * v.rows) rows in local indices, written to @p out ascending by
 * (distance, index), through the collector @p Top (BestRow for
 * kk = 1, TopRows otherwise). Returns the shard's pruning counters.
 * Each shard seeds its own bound, so its work and counters never
 * depend on other shards.
 */
template <class Top>
ScanStats
shardTopK(const ShardView &v, const ShardScan &scan,
          std::vector<std::size_t> &prefixDist,
          std::vector<RowMatch> &out)
{
    const ScanPolicy &policy = scan.policy;
    const std::size_t prefix = scan.prefix;
    const bool prune = policy.prune != PruneMode::Off;
    // Bounds below this use the bounded kernel; 0 when pruning is off.
    const std::size_t boundedBelow =
        prune ? cutoffFor(policy, prefix) + 1 : 0;
    // One past any attainable distance: the first row always gets an
    // exact count.
    if (!prune || policy.cascadePrefix == 0 ||
        policy.cascadePrefix >= prefix || scan.kk >= v.rows) {
        return refineRows<Top, false>(v, scan, boundedBelow,
                                      prefix + 1, nullptr, 0, out);
    }

    // The cascade lowers the ceiling to B + 1, where B is the largest
    // exact full distance among the kk best prefix-stage rows (see
    // PackedRows::scan).
    std::size_t ceiling = 0;
    {
        TRACE_SPAN("packed_rows.cascade");
        prefixDist.resize(v.rows);
        shardDistances(v, scan.q, policy.cascadePrefix, scan.fn,
                       prefixDist.data());
        const std::size_t none = std::numeric_limits<std::size_t>::max();
        Top seeds(out, scan.kk);
        std::size_t bound = none;
        for (std::size_t row = 0; row < v.rows; ++row) {
            if (prefixDist[row] < bound)
                bound = seeds.accept(row, prefixDist[row], none);
        }
        std::size_t maxSeed = 0;
        for (const RowMatch &seed : seeds.taken()) {
            maxSeed = std::max(
                maxSeed, rowDist(v, seed.index, scan.q, prefix, scan.fn));
        }
        ceiling = maxSeed + 1;
    }
    TRACE_SPAN("packed_rows.refine");
    return refineRows<Top, true>(v, scan, boundedBelow, ceiling,
                                 prefixDist.data(),
                                 wordsFor(policy.cascadePrefix), out);
}

/**
 * Fold one shard's sorted list (local indices, first global row
 * @p firstRow) into the global worse-first heap @p merged of
 * capacity @p kk. Once the heap is full a candidate enters only with
 * a strictly smaller distance than its top; the early break is sound
 * because the list is ascending and the top never grows.
 */
void
foldShardTopK(std::vector<RowMatch> &merged,
              const std::vector<RowMatch> &shardOut,
              std::size_t firstRow, std::size_t kk)
{
    for (const RowMatch &m : shardOut) {
        if (merged.size() < kk) {
            merged.push_back({firstRow + m.index, m.distance});
            std::push_heap(merged.begin(), merged.end(), worseMatch);
        } else if (m.distance < merged.front().distance) {
            std::pop_heap(merged.begin(), merged.end(), worseMatch);
            merged.back() = {firstRow + m.index, m.distance};
            std::push_heap(merged.begin(), merged.end(), worseMatch);
        } else {
            break;
        }
    }
}

} // namespace

const char *
pruneModeName(PruneMode mode)
{
    switch (mode) {
    case PruneMode::Auto:
        return "auto";
    case PruneMode::On:
        return "on";
    case PruneMode::Off:
        return "off";
    }
    return "unknown";
}

bool
parsePruneMode(const std::string &name, PruneMode *out)
{
    for (const PruneMode mode :
         {PruneMode::Auto, PruneMode::On, PruneMode::Off}) {
        if (name == pruneModeName(mode)) {
            *out = mode;
            return true;
        }
    }
    return false;
}

PackedRows::PackedRows(std::size_t dim) : store(dim) {}

void
PackedRows::reserve(std::size_t extraRows)
{
    store.reserve(extraRows);
}

void
PackedRows::setLayout(const StoreLayout &spec)
{
    store.reshape(spec);
}

std::size_t
PackedRows::append(const Hypervector &hv)
{
    if (hv.dim() != dim())
        throw std::invalid_argument("PackedRows::append: dimension "
                                    "mismatch");
    return store.append(hv.data());
}

Hypervector
PackedRows::rowVector(std::size_t row) const
{
    assert(row < rows());
    std::vector<std::uint64_t> buf(wordsPerRow());
    store.copyRow(row, buf.data());
    return Hypervector::fromWords(dim(), buf.data());
}

std::size_t
PackedRows::distance(std::size_t row, const Hypervector &query,
                     std::size_t prefix) const
{
    assert(row < rows());
    assert(query.dim() == dim());
    assert(prefix <= dim());
    std::size_t shard = 0;
    std::size_t local = 0;
    store.locate(row, &shard, &local);
    return rowDist(store.view(shard), local, query.data(), prefix,
                   distance::active());
}

void
PackedRows::distances(const Hypervector &query, std::size_t prefix,
                      std::vector<std::size_t> &out) const
{
    out.resize(rows());
    // Hoist the kernel dispatch out of the row loops.
    const distance::HammingFn fn = distance::active();
    const std::uint64_t *q = query.data();
    for (std::size_t s = 0; s < store.shardCount(); ++s) {
        const ShardView v = store.view(s);
        shardDistances(v, q, prefix, fn, out.data() + v.firstRow);
    }
}

void
PackedRows::stagePrefixDistances(
    std::size_t row, const Hypervector &query,
    const std::vector<std::size_t> &stageEnds,
    std::vector<std::size_t> &out) const
{
    assert(row < rows());
    assert(query.dim() == dim());
    assert(stageEnds.empty() || stageEnds.back() <= dim());
    out.resize(stageEnds.size());
    // The staged walk below wants one contiguous record; on a sliced
    // store materialize the row first (the staged engines keep their
    // stores row-major, so this path is cold there).
    std::vector<std::uint64_t> rowBuf;
    const std::uint64_t *a = nullptr;
    if (store.sliceWords() != 0) {
        rowBuf.resize(wordsPerRow());
        store.copyRow(row, rowBuf.data());
        a = rowBuf.data();
    } else {
        std::size_t shard = 0;
        std::size_t local = 0;
        store.locate(row, &shard, &local);
        const ShardView v = store.view(shard);
        a = headPtr(v, local);
    }
    const std::uint64_t *q = query.data();
    const distance::HammingFn fn = distance::active();
    // One pass: full words accumulate into cum (through the
    // dispatched kernel, one word-aligned span per stage); a stage
    // boundary inside a word adds only the masked low bits of that
    // word, and the next stage's cumulative count re-reads the whole
    // boundary word, so the difference attributes the high bits
    // correctly.
    std::size_t w = 0;
    std::size_t cum = 0;
    std::size_t prev = 0;
    for (std::size_t s = 0; s < stageEnds.size(); ++s) {
        const std::size_t end = stageEnds[s];
        assert(end >= (s == 0 ? 0 : stageEnds[s - 1]));
        const std::size_t fullWords =
            end / Hypervector::bitsPerWord;
        if (w < fullWords) {
            cum += fn(a + w, q + w,
                      (fullWords - w) * Hypervector::bitsPerWord);
            w = fullWords;
        }
        std::size_t cumAtEnd = cum;
        const std::size_t rem = end % Hypervector::bitsPerWord;
        if (rem != 0) {
            const std::uint64_t mask = (1ULL << rem) - 1;
            cumAtEnd += std::popcount(
                (a[fullWords] ^ q[fullWords]) & mask);
        }
        out[s] = cumAtEnd - prev;
        prev = cumAtEnd;
    }
}

void
PackedRows::scan(const Hypervector &query, const ScanRequest &req,
                 ScanStats *stats, std::vector<RowMatch> &out,
                 std::vector<std::size_t> *cascadeScratch) const
{
    out.clear();
    if (rows() == 0)
        throw std::logic_error("PackedRows::scan: empty store");
    assert(query.dim() == dim());
    assert(req.prefix <= dim());
    if (req.k == 0)
        return;
    const std::size_t kk = std::min(req.k, rows());
    const ShardScan shared{query.data(), req.prefix, kk, req.policy,
                           stats != nullptr, distance::active(),
                           distance::activeBounded()};
    const auto scanShard = [&](const ShardView &v,
                               std::vector<std::size_t> &prefixDist,
                               std::vector<RowMatch> &shardOut) {
        return kk == 1
                   ? shardTopK<BestRow>(v, shared, prefixDist, shardOut)
                   : shardTopK<TopRows>(v, shared, prefixDist, shardOut);
    };
    std::vector<std::size_t> ownScratch;
    std::vector<std::size_t> &scratch =
        cascadeScratch != nullptr ? *cascadeScratch : ownScratch;

    ScanStats total;
    const std::size_t n = store.shardCount();
    if (n == 1) {
        // Local indices are global and already sorted.
        total = scanShard(store.view(0), scratch, out);
    } else {
        // Shards run in ascending order, each folded into out as
        // soon as it finishes.
        std::vector<RowMatch> shardOut;
        for (std::size_t s = 0; s < n; ++s) {
            const ShardView v = store.view(s);
            if (v.rows == 0)
                continue;
            total += scanShard(v, scratch, shardOut);
            foldShardTopK(out, shardOut, v.firstRow, kk);
        }
        std::sort_heap(out.begin(), out.end(), worseMatch);
    }
    if (stats != nullptr)
        *stats += total;
}

} // namespace hdham
