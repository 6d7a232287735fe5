/**
 * @file
 * Unit tests for the streaming majority accumulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/bundler.hh"
#include "core/hypervector.hh"
#include "core/random.hh"

namespace
{

using hdham::Bundler;
using hdham::Hypervector;
using hdham::Rng;

TEST(BundlerTest, EmptyThrows)
{
    Bundler b(100);
    Rng rng(1);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_THROW(b.majority(rng), std::logic_error);
}

TEST(BundlerTest, SingleInputIsIdentity)
{
    Rng rng(2);
    Hypervector hv = Hypervector::random(257, rng);
    Bundler b(257);
    b.add(hv);
    EXPECT_EQ(b.majority(rng), hv);
}

TEST(BundlerTest, OddMajorityIsExact)
{
    Rng rng(3);
    const std::size_t dim = 333;
    std::vector<Hypervector> inputs;
    for (int i = 0; i < 5; ++i)
        inputs.push_back(Hypervector::random(dim, rng));
    Bundler b(dim);
    for (const auto &hv : inputs)
        b.add(hv);
    const Hypervector maj = b.majority(rng);
    for (std::size_t i = 0; i < dim; ++i) {
        int ones = 0;
        for (const auto &hv : inputs)
            ones += hv.get(i);
        EXPECT_EQ(maj.get(i), ones > 2) << "component " << i;
    }
}

TEST(BundlerTest, OnesCountMatchesManual)
{
    Rng rng(4);
    const std::size_t dim = 130;
    std::vector<Hypervector> inputs;
    Bundler b(dim);
    for (int i = 0; i < 7; ++i) {
        inputs.push_back(Hypervector::random(dim, rng));
        b.add(inputs.back());
    }
    for (std::size_t i = 0; i < dim; ++i) {
        std::uint32_t ones = 0;
        for (const auto &hv : inputs)
            ones += hv.get(i);
        EXPECT_EQ(b.onesCount(i), ones);
    }
}

TEST(BundlerTest, CountTracksAdds)
{
    Rng rng(5);
    Bundler b(64);
    for (int i = 1; i <= 10; ++i) {
        b.add(Hypervector::random(64, rng));
        EXPECT_EQ(b.count(), static_cast<std::uint64_t>(i));
    }
}

TEST(BundlerTest, ClearResets)
{
    Rng rng(6);
    Bundler b(64);
    b.add(Hypervector::random(64, rng));
    b.clear();
    EXPECT_EQ(b.count(), 0u);
    const Hypervector ones = Hypervector::fromString(
        std::string(64, '1'));
    b.add(ones);
    EXPECT_EQ(b.majority(rng), ones);
}

TEST(BundlerTest, MajorityPreservesSimilarity)
{
    // delta([A+B+C], A) < D/2: the paper's bundling property.
    Rng rng(7);
    const std::size_t dim = 10000;
    Hypervector a = Hypervector::random(dim, rng);
    Hypervector b = Hypervector::random(dim, rng);
    Hypervector c = Hypervector::random(dim, rng);
    Bundler acc(dim);
    acc.add(a);
    acc.add(b);
    acc.add(c);
    const Hypervector maj = acc.majority(rng);
    // Expected distance D/4 for three random inputs.
    EXPECT_NEAR(maj.hamming(a), dim / 4.0, 300.0);
    EXPECT_NEAR(maj.hamming(b), dim / 4.0, 300.0);
    EXPECT_NEAR(maj.hamming(c), dim / 4.0, 300.0);
    EXPECT_LT(maj.hamming(a), dim / 2 - 500);
}

TEST(BundlerTest, TieBreakingIsBalanced)
{
    // Bundle one all-ones and one all-zeros vector: every component
    // ties; the tie-break coin should set roughly half the bits.
    Rng rng(8);
    const std::size_t dim = 10000;
    Bundler b(dim);
    b.add(Hypervector(dim));
    b.add(Hypervector::fromString(std::string(dim, '1')));
    const Hypervector maj = b.majority(rng);
    EXPECT_NEAR(maj.popcount(), dim / 2.0, 300.0);
}

TEST(BundlerTest, MajorityIsOrderInvariant)
{
    Rng rng(9);
    const std::size_t dim = 200;
    std::vector<Hypervector> inputs;
    for (int i = 0; i < 9; ++i)
        inputs.push_back(Hypervector::random(dim, rng));
    Bundler fwd(dim), rev(dim);
    for (const auto &hv : inputs)
        fwd.add(hv);
    for (auto it = inputs.rbegin(); it != inputs.rend(); ++it)
        rev.add(*it);
    Rng tieA(10), tieB(10);
    EXPECT_EQ(fwd.majority(tieA), rev.majority(tieB));
}

TEST(BundlerTest, SurvivesLaneCounterFlush)
{
    // More adds than the 16-bit lane capacity: totals must stay
    // exact across the internal flush boundary.
    const std::size_t dim = 96;
    Bundler b(dim);
    Hypervector ones = Hypervector::fromString(std::string(dim, '1'));
    Hypervector zeros(dim);
    const int n = 70000; // > 65535
    for (int i = 0; i < n; ++i)
        b.add(ones);
    b.add(zeros);
    EXPECT_EQ(b.count(), static_cast<std::uint64_t>(n + 1));
    EXPECT_EQ(b.onesCount(0), static_cast<std::uint32_t>(n));
    EXPECT_EQ(b.onesCount(dim - 1), static_cast<std::uint32_t>(n));
    Rng rng(11);
    EXPECT_EQ(b.majority(rng), ones);
}

TEST(BundlerTest, MixedReadsAndWrites)
{
    // onesCount (which flushes) interleaved with adds stays exact.
    Rng rng(12);
    const std::size_t dim = 64;
    Bundler b(dim);
    std::vector<std::uint32_t> manual(dim, 0);
    for (int round = 0; round < 20; ++round) {
        Hypervector hv = Hypervector::random(dim, rng);
        b.add(hv);
        for (std::size_t i = 0; i < dim; ++i)
            manual[i] += hv.get(i);
        EXPECT_EQ(b.onesCount(round % dim), manual[round % dim]);
    }
}

TEST(BundlerTest, MatchesPerComponentCountersAcrossPlaneGrowth)
{
    // Against naive uint32 counters and the per-component majority
    // loop: every ones-count, the majority, and the tie RNG's state
    // afterwards, at each count on either side of a power of two up
    // to 2^9 + 1. Component 0 is one in every input, so its count
    // sits exactly on each boundary.
    for (const std::size_t dim : {1u, 63u, 64u, 65u, 10000u}) {
        Rng inputs(100 + dim);
        Bundler b(dim);
        std::vector<std::uint32_t> naive(dim, 0);
        for (std::uint64_t n = 1; n <= 513; ++n) {
            Hypervector hv = Hypervector::random(dim, inputs);
            hv.set(0, true);
            b.add(hv);
            for (std::size_t i = 0; i < dim; ++i)
                naive[i] += hv.get(i);
            if (std::popcount(n) != 1 && std::popcount(n + 1) != 1 &&
                std::popcount(n - 1) != 1)
                continue;

            ASSERT_EQ(b.count(), n);
            for (std::size_t i = 0; i < dim; ++i)
                ASSERT_EQ(b.onesCount(i), naive[i])
                    << "dim=" << dim << " n=" << n << " i=" << i;

            Rng tieGot(n), tieWant(n);
            Hypervector want(dim);
            for (std::size_t i = 0; i < dim; ++i) {
                const std::uint64_t twice = 2ULL * naive[i];
                if (twice > n)
                    want.set(i, true);
                else if (twice == n)
                    want.set(i, tieWant.nextBool());
            }
            EXPECT_EQ(b.majority(tieGot), want)
                << "dim=" << dim << " n=" << n;
            EXPECT_EQ(tieGot.next(), tieWant.next())
                << "dim=" << dim << " n=" << n;
        }
    }
}

TEST(BundlerTest, BundleOfManyRandomStaysBalanced)
{
    Rng rng(13);
    const std::size_t dim = 4096;
    Bundler b(dim);
    for (int i = 0; i < 101; ++i)
        b.add(Hypervector::random(dim, rng));
    const Hypervector maj = b.majority(rng);
    EXPECT_NEAR(maj.popcount(), dim / 2.0, 250.0);
}

} // namespace
