/**
 * @file
 * Determinism suite for the sharded scan paths.
 *
 * The sharded contract: scan() is bit-identical to the unsharded
 * row-major exhaustive scan -- winner indices, distances and the
 * lowest-index tie rule -- for every layout and shard count; and
 * because every shard seeds its own pruning bound, the pruned-row
 * counters depend only on the shard partition, never on the layout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/distance.hh"
#include "core/packed_rows.hh"
#include "core/random.hh"

namespace
{

using hdham::Hypervector;
using hdham::PackedRows;
using hdham::PruneMode;
using hdham::RowLayout;
using hdham::RowMatch;
using hdham::Rng;
using hdham::ScanPolicy;
using hdham::ScanStats;
using hdham::StoreLayout;
namespace distance = hdham::distance;

constexpr std::size_t kDim = 1024;
constexpr std::size_t kRows = 53; // prime: every shard count is ragged
constexpr std::size_t kSlicePrefix = 192;
constexpr std::size_t kCascade = 128;

const std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

/** Policies spanning exhaustive, abandon-only and cascade scans. */
std::vector<ScanPolicy>
shardedPolicies()
{
    return {
        ScanPolicy{PruneMode::Off, 0},
        ScanPolicy{PruneMode::On, 0},
        ScanPolicy{PruneMode::Auto, kCascade},
        ScanPolicy{PruneMode::On, kCascade},
    };
}

/**
 * Shared skewed workload (same recipe as the pruned-scan suite:
 * duplicate rows for ties, most queries near a stored prototype) plus
 * an untouched row-major unsharded copy that serves as the oracle.
 */
struct ShardedWorkload
{
    PackedRows rows;   // reshaped by the tests
    PackedRows oracle; // stays row-major, single shard
    std::vector<Hypervector> queries;

    ShardedWorkload() : rows(kDim), oracle(kDim)
    {
        Rng rng(0x5AAD);
        std::vector<Hypervector> stored;
        for (std::size_t r = 0; r < kRows; ++r) {
            if (r >= 2 && r % 5 == 0)
                stored.push_back(stored[r - 2]); // exact duplicate
            else
                stored.push_back(Hypervector::random(kDim, rng));
            rows.append(stored.back());
            oracle.append(stored.back());
        }
        for (std::size_t q = 0; q < 20; ++q) {
            if (q % 4 == 3) {
                queries.push_back(Hypervector::random(kDim, rng));
            } else {
                Hypervector hv = stored[(7 * q) % kRows];
                hv.injectErrors(kDim / 20, rng);
                queries.push_back(std::move(hv));
            }
        }
    }
};

const ShardedWorkload &
workload()
{
    static const ShardedWorkload w;
    return w;
}

/** The top-@p k scan. */
std::vector<RowMatch>
scanTop(const PackedRows &rows, const Hypervector &query,
        std::size_t k, const ScanPolicy &policy,
        ScanStats *stats = nullptr)
{
    std::vector<RowMatch> out;
    rows.scan(query, {kDim, k, policy}, stats, out);
    return out;
}

/** The layout axis: seed row-major and the sliced head layout. */
std::vector<StoreLayout>
layoutAxis(std::size_t shards)
{
    return {
        StoreLayout{RowLayout::RowMajor, shards, 0},
        StoreLayout{RowLayout::Sliced, shards, kSlicePrefix},
    };
}

TEST(ShardedScanTest, NearestMatchesUnshardedExhaustiveOracle)
{
    const ShardedWorkload &w = workload();
    PackedRows sharded(kDim);
    for (std::size_t r = 0; r < kRows; ++r)
        sharded.append(w.oracle.rowVector(r));
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            sharded.setLayout(spec);
            for (const Hypervector &query : w.queries) {
                const RowMatch want =
                    scanTop(w.oracle, query, 1,
                            ScanPolicy{PruneMode::Off, 0})
                        .at(0);
                for (const ScanPolicy &policy : shardedPolicies()) {
                    const RowMatch got =
                        scanTop(sharded, query, 1, policy).at(0);
                    EXPECT_EQ(got.index, want.index)
                        << hdham::rowLayoutName(spec.layout)
                        << " shards " << shards << " cascade "
                        << policy.cascadePrefix;
                    EXPECT_EQ(got.distance, want.distance)
                        << hdham::rowLayoutName(spec.layout)
                        << " shards " << shards;
                }
            }
        }
    }
}

TEST(ShardedScanTest, TopKMatchesSortOracle)
{
    const ShardedWorkload &w = workload();
    PackedRows sharded(kDim);
    for (std::size_t r = 0; r < kRows; ++r)
        sharded.append(w.oracle.rowVector(r));
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            sharded.setLayout(spec);
            for (const Hypervector &query : w.queries) {
                std::vector<RowMatch> oracle;
                for (std::size_t r = 0; r < kRows; ++r)
                    oracle.push_back(
                        {r, w.oracle.distance(r, query, kDim)});
                std::stable_sort(
                    oracle.begin(), oracle.end(),
                    [](const RowMatch &a, const RowMatch &b) {
                        return a.distance != b.distance
                                   ? a.distance < b.distance
                                   : a.index < b.index;
                    });
                for (const std::size_t k :
                     {std::size_t{0}, std::size_t{1}, std::size_t{5},
                      kRows, kRows + 3}) {
                    const std::size_t kk = std::min(k, kRows);
                    for (const ScanPolicy &policy :
                         shardedPolicies()) {
                        const std::vector<RowMatch> got =
                            scanTop(sharded, query, k, policy);
                        ASSERT_EQ(got.size(), kk)
                            << "k " << k << " shards " << shards;
                        for (std::size_t i = 0; i < kk; ++i) {
                            EXPECT_EQ(got[i].index, oracle[i].index)
                                << hdham::rowLayoutName(spec.layout)
                                << " shards " << shards << " k " << k
                                << " rank " << i;
                            EXPECT_EQ(got[i].distance,
                                      oracle[i].distance)
                                << "k " << k << " rank " << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(ShardedScanTest, PrunedRowCountersAreLayoutInvariant)
{
    // rowsPruned and cascadeSurvivors depend only on distance values
    // and the shard partition, never on the physical layout.
    // (wordsSkipped may differ across layouts: the split kernels
    // place their strip checks per stride.)
    const ShardedWorkload &w = workload();
    PackedRows rowMajor(kDim);
    PackedRows sliced(kDim);
    for (std::size_t r = 0; r < kRows; ++r) {
        rowMajor.append(w.oracle.rowVector(r));
        sliced.append(w.oracle.rowVector(r));
    }
    for (const std::size_t shards : kShardCounts) {
        rowMajor.setLayout(StoreLayout{RowLayout::RowMajor, shards, 0});
        sliced.setLayout(
            StoreLayout{RowLayout::Sliced, shards, kSlicePrefix});
        for (const ScanPolicy &policy : shardedPolicies()) {
            for (const Hypervector &query : w.queries) {
                ScanStats row;
                ScanStats slice;
                scanTop(rowMajor, query, 1, policy, &row);
                scanTop(sliced, query, 1, policy, &slice);
                EXPECT_EQ(slice.rowsPruned, row.rowsPruned)
                    << "shards " << shards << " cascade "
                    << policy.cascadePrefix;
                EXPECT_EQ(slice.cascadeSurvivors,
                          row.cascadeSurvivors)
                    << "shards " << shards;
            }
        }
    }
}

TEST(ShardedScanTest, AllRowsIdenticalTiesResolveToRowZero)
{
    // Ties spanning every shard boundary: the bound-aware reduce
    // must keep the globally lowest index, never a later shard's
    // equal-distance winner.
    Rng rng(33);
    PackedRows rows(kDim);
    const Hypervector proto = Hypervector::random(kDim, rng);
    for (std::size_t r = 0; r < 24; ++r)
        rows.append(proto);
    Hypervector query = proto;
    query.injectErrors(kDim / 10, rng);
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            rows.setLayout(spec);
            for (const ScanPolicy &policy : shardedPolicies()) {
                const RowMatch best =
                    scanTop(rows, query, 1, policy).at(0);
                EXPECT_EQ(best.index, 0u)
                    << hdham::rowLayoutName(spec.layout) << " shards "
                    << shards;
                const std::size_t dist = best.distance;
                const std::vector<RowMatch> top =
                    scanTop(rows, query, 6, policy);
                ASSERT_EQ(top.size(), 6u);
                for (std::size_t i = 0; i < top.size(); ++i) {
                    EXPECT_EQ(top[i].index, i) << "shards " << shards;
                    EXPECT_EQ(top[i].distance, dist);
                }
            }
        }
    }
}

} // namespace
