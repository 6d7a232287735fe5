#include "ham/d_ham.hh"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/batch_executor.hh"
#include "core/trace.hh"

namespace hdham::ham
{

namespace
{

/**
 * The traced search, split into the two phases the digital hardware
 * pipelines separately: the XOR+popcount pass over every row, then
 * the comparator-tree argmin (lowest index on ties). Exhaustive by
 * design -- its spans measure the full array scan the hardware
 * performs -- and bit-identical to PackedRows::scan with k = 1.
 */
HamResult
tracedSearch(const PackedRows &rows, const Hypervector &query,
             std::size_t prefix, std::vector<std::size_t> &dists)
{
    {
        TRACE_SPAN("d_ham.popcount");
        rows.distances(query, prefix, dists);
    }
    TRACE_SPAN("d_ham.compare");
    HamResult result;
    result.reportedDistance = dists[0];
    for (std::size_t id = 1; id < dists.size(); ++id) {
        if (dists[id] < result.reportedDistance) {
            result.reportedDistance = dists[id];
            result.classId = id;
        }
    }
    return result;
}

/** The k = 1 scan of @p req, as a HamResult. */
HamResult
nearestOf(const PackedRows &rows, const Hypervector &query,
          const ScanRequest &req, ScanStats *stats,
          std::vector<RowMatch> &best,
          std::vector<std::size_t> *cascadeScratch = nullptr)
{
    rows.scan(query, req, stats, best, cascadeScratch);
    HamResult result;
    result.classId = best[0].index;
    result.reportedDistance = best[0].distance;
    return result;
}

} // namespace

DHam::DHam(const DHamConfig &config)
    : cfg(config), rows(config.dim == 0 ? 1 : config.dim)
{
    if (cfg.dim == 0)
        throw std::invalid_argument("DHam: zero dimension");
    if (cfg.effectiveDim() > cfg.dim)
        throw std::invalid_argument("DHam: sampled dimension exceeds "
                                    "D");
}

std::size_t
DHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("DHam::store: dimension mismatch");
    return rows.append(hv);
}

HamResult
DHam::search(const Hypervector &query)
{
    if (rows.rows() == 0)
        throw std::logic_error("DHam::search: no stored classes");
    assert(query.dim() == cfg.dim);

    // The comparator tree resolves ties toward the lower row index,
    // which is exactly PackedRows::scan's tie rule.
    TRACE_SPAN("d_ham.search");
    HamResult result;
    ScanStats stats;
    if (trace::enabled()) {
        std::vector<std::size_t> dists;
        result = tracedSearch(rows, query, cfg.effectiveDim(), dists);
    } else {
        // Reused across calls: a per-query allocation would cost
        // more than scanning a small memory.
        thread_local std::vector<RowMatch> best;
        result = nearestOf(rows, query, {cfg.effectiveDim(), 1, policy},
                           sink ? &stats : nullptr, best);
    }
    if (sink) {
        sink->queries.add(1);
        sink->rowsScanned.add(rows.rows());
        sink->bitsSampled.add(cfg.effectiveDim());
        sink->rowsPruned.add(stats.rowsPruned);
        sink->wordsSkipped.add(stats.wordsSkipped);
        sink->cascadeSurvivors.add(stats.cascadeSurvivors);
    }
    return result;
}

std::vector<HamResult>
DHam::searchBatch(const std::vector<Hypervector> &queries,
                  std::size_t threads)
{
    batch::requireStored(rows.rows(), "DHam");
    const std::size_t prefix = cfg.effectiveDim();

    /** Per-chunk state: the traced path reuses one scratch vector
     *  for its split popcount/compare phases; the fused path reuses
     *  it for the cascade's prefix distances, reuses one result
     *  vector and tallies pruning. */
    struct Chunk
    {
        bool traced;
        ScanStats stats;
        std::vector<RowMatch> best;
        std::vector<std::size_t> scratch;
    };
    return batch::run<HamResult>(
        {"d_ham.batch", "d_ham.chunk"}, queries.size(), threads,
        sink, [] { return Chunk{trace::enabled(), {}, {}, {}}; },
        [&](std::size_t q, Chunk &chunk) {
            assert(queries[q].dim() == cfg.dim);
            if (chunk.traced)
                return tracedSearch(rows, queries[q], prefix,
                                    chunk.scratch);
            return nearestOf(rows, queries[q], {prefix, 1, policy},
                             sink ? &chunk.stats : nullptr, chunk.best,
                             &chunk.scratch);
        },
        [&](const Chunk &chunk, std::size_t begin, std::size_t end) {
            const std::size_t n = end - begin;
            sink->queries.add(n);
            sink->rowsScanned.add(n * rows.rows());
            sink->bitsSampled.add(n * prefix);
            sink->rowsPruned.add(chunk.stats.rowsPruned);
            sink->wordsSkipped.add(chunk.stats.wordsSkipped);
            sink->cascadeSurvivors.add(chunk.stats.cascadeSurvivors);
        });
}

} // namespace hdham::ham
