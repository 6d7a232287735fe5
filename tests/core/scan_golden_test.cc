/**
 * @file
 * Golden counters for the bound-pruned scan.
 *
 * The equivalence suites compare one scan path with another; this
 * suite pins absolute values. Over a grid of dimension x shard count
 * x layout x prune mode x cascade width x scan prefix, it hashes
 * every query's top-1 and top-5 answers (index, distance) together
 * with the rowsPruned and cascadeSurvivors counters, and checks the
 * hashes against a committed table. wordsSkipped depends on where a
 * kernel places its strip checks, so it is hashed separately and
 * checked only while the scalar reference kernel is active (the
 * scalar-pinned rerun of this binary).
 *
 * A mismatch prints the configuration and the hashes it produced, in
 * the table's own format.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
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

constexpr std::size_t kRows = 96;
constexpr std::size_t kQueries = 35;

/** FNV-1a over a stream of size_t values. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void add(std::size_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Hashes of one configuration's 35 queries at k = 1 and k = 5. */
struct Golden
{
    /** Answers plus rowsPruned and cascadeSurvivors, both k. */
    std::uint64_t answers;
    /** wordsSkipped, both k (checked under the scalar kernel only). */
    std::uint64_t words;
};

/**
 * Rows and queries as in the pruned-scan suite: every fifth row
 * duplicates an earlier one (ties), most queries sit near a stored
 * row (pruning engages), every fourth is uniform random.
 */
struct Workload
{
    std::vector<Hypervector> stored;
    std::vector<Hypervector> queries;

    explicit Workload(std::size_t dim)
    {
        Rng rng(0x5CA9 + dim);
        for (std::size_t r = 0; r < kRows; ++r) {
            if (r >= 2 && r % 5 == 0)
                stored.push_back(stored[r - 2]);
            else
                stored.push_back(Hypervector::random(dim, rng));
        }
        for (std::size_t q = 0; q < kQueries; ++q) {
            if (q % 4 == 3) {
                queries.push_back(Hypervector::random(dim, rng));
            } else {
                Hypervector hv = stored[(q * 7) % kRows];
                hv.injectErrors(dim / 20, rng);
                queries.push_back(std::move(hv));
            }
        }
    }
};

Golden
hashConfig(const PackedRows &rows, const Workload &w,
           std::size_t prefix, const ScanPolicy &policy)
{
    Fnv answers;
    Fnv words;
    for (std::size_t k : {1u, 5u}) {
        for (const Hypervector &query : w.queries) {
            ScanStats stats;
            std::vector<RowMatch> top;
            rows.scan(query, {prefix, k, policy}, &stats, top);
            for (const RowMatch &m : top) {
                answers.add(m.index);
                answers.add(m.distance);
            }
            answers.add(stats.rowsPruned);
            answers.add(stats.cascadeSurvivors);
            words.add(stats.wordsSkipped);
        }
    }
    return {answers.h, words.h};
}

/** The pinned table, one entry per grid point in loop order. */
const Golden kGolden[] = {
#include "core/scan_golden_data.inc"
};

TEST(ScanGoldenTest, AnswersAndCountersMatchTheCommittedTable)
{
    const bool scalar =
        std::strcmp(distance::activeKernelName(), "scalar") == 0;
    std::size_t next = 0;
    std::size_t mismatches = 0;
    for (std::size_t dim : {64u, 1000u, 1024u}) {
        const Workload w(dim);
        for (std::size_t shards : {1u, 3u, 7u}) {
            for (RowLayout layout :
                 {RowLayout::RowMajor, RowLayout::Sliced}) {
                PackedRows rows(dim);
                for (const Hypervector &hv : w.stored)
                    rows.append(hv);
                rows.setLayout(StoreLayout{layout, shards, dim / 8});
                for (PruneMode prune :
                     {PruneMode::Off, PruneMode::On, PruneMode::Auto}) {
                    for (std::size_t cascade :
                         {std::size_t{0}, dim / 8, dim / 3 + 1}) {
                        for (std::size_t prefix : {dim, dim / 2 + 3}) {
                            const ScanPolicy policy{prune, cascade};
                            ASSERT_LT(next, std::size(kGolden));
                            const Golden &want = kGolden[next++];
                            const Golden got =
                                hashConfig(rows, w, prefix, policy);
                            if (got.answers == want.answers &&
                                (!scalar || got.words == want.words))
                                continue;
                            ++mismatches;
                            std::printf(
                                "    // D=%zu shards=%zu %s prune=%s "
                                "cascade=%zu prefix=%zu\n"
                                "    {0x%016llxULL, 0x%016llxULL},\n",
                                dim, shards,
                                layout == RowLayout::Sliced
                                    ? "sliced"
                                    : "row-major",
                                hdham::pruneModeName(prune), cascade,
                                prefix,
                                static_cast<unsigned long long>(
                                    got.answers),
                                static_cast<unsigned long long>(
                                    got.words));
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(next, std::size(kGolden));
    EXPECT_EQ(mismatches, 0u)
        << "configurations whose answers or counters moved are "
           "printed above";
}

} // namespace
