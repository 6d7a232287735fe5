/**
 * @file
 * Unit tests for the bit-packed hypervector.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/hypervector.hh"
#include "core/random.hh"

namespace
{

using hdham::Hypervector;
using hdham::Rng;

TEST(HypervectorTest, DefaultIsEmpty)
{
    Hypervector hv;
    EXPECT_EQ(hv.dim(), 0u);
    EXPECT_EQ(hv.words(), 0u);
}

TEST(HypervectorTest, ZeroConstructed)
{
    Hypervector hv(130);
    EXPECT_EQ(hv.dim(), 130u);
    EXPECT_EQ(hv.words(), 3u);
    EXPECT_EQ(hv.popcount(), 0u);
    for (std::size_t i = 0; i < 130; ++i)
        EXPECT_FALSE(hv.get(i));
}

TEST(HypervectorTest, SetGetFlip)
{
    Hypervector hv(100);
    hv.set(0, true);
    hv.set(63, true);
    hv.set(64, true);
    hv.set(99, true);
    EXPECT_TRUE(hv.get(0));
    EXPECT_TRUE(hv.get(63));
    EXPECT_TRUE(hv.get(64));
    EXPECT_TRUE(hv.get(99));
    EXPECT_EQ(hv.popcount(), 4u);
    hv.flip(63);
    EXPECT_FALSE(hv.get(63));
    hv.set(0, false);
    EXPECT_FALSE(hv.get(0));
    EXPECT_EQ(hv.popcount(), 2u);
}

TEST(HypervectorTest, FromStringRoundTrip)
{
    const std::string bits = "1010011100010";
    Hypervector hv = Hypervector::fromString(bits);
    EXPECT_EQ(hv.dim(), bits.size());
    EXPECT_EQ(hv.toString(), bits);
}

TEST(HypervectorTest, FromStringRejectsGarbage)
{
    EXPECT_THROW(Hypervector::fromString("10x1"),
                 std::invalid_argument);
}

TEST(HypervectorTest, RandomHasRoughlyHalfOnes)
{
    Rng rng(1);
    Hypervector hv = Hypervector::random(10000, rng);
    EXPECT_NEAR(hv.popcount(), 5000.0, 250.0);
}

TEST(HypervectorTest, RandomBalancedHasExactlyHalfOnes)
{
    Rng rng(2);
    for (std::size_t dim : {10u, 64u, 100u, 10000u}) {
        Hypervector hv = Hypervector::randomBalanced(dim, rng);
        EXPECT_EQ(hv.popcount(), dim / 2);
    }
}

TEST(HypervectorTest, RandomCleanTail)
{
    // Dimensions not divisible by 64 must keep the spare bits zero,
    // or popcount-based distances would be wrong.
    Rng rng(3);
    Hypervector hv = Hypervector::random(70, rng);
    std::size_t manual = 0;
    for (std::size_t i = 0; i < 70; ++i)
        manual += hv.get(i);
    EXPECT_EQ(hv.popcount(), manual);
}

TEST(HypervectorTest, HammingBasics)
{
    Hypervector a = Hypervector::fromString("110010");
    Hypervector b = Hypervector::fromString("010011");
    EXPECT_EQ(a.hamming(b), 2u);
    EXPECT_EQ(b.hamming(a), 2u);
    EXPECT_EQ(a.hamming(a), 0u);
}

TEST(HypervectorTest, HammingPrefix)
{
    Hypervector a = Hypervector::fromString("11001011");
    Hypervector b = Hypervector::fromString("00001011");
    EXPECT_EQ(a.hammingPrefix(b, 0), 0u);
    EXPECT_EQ(a.hammingPrefix(b, 1), 1u);
    EXPECT_EQ(a.hammingPrefix(b, 2), 2u);
    EXPECT_EQ(a.hammingPrefix(b, 8), 2u);
}

TEST(HypervectorTest, HammingPrefixEqualsFullAtD)
{
    Rng rng(4);
    for (std::size_t dim : {63u, 64u, 65u, 1000u}) {
        Hypervector a = Hypervector::random(dim, rng);
        Hypervector b = Hypervector::random(dim, rng);
        EXPECT_EQ(a.hammingPrefix(b, dim), a.hamming(b));
    }
}

TEST(HypervectorTest, HammingPrefixIsMonotone)
{
    Rng rng(5);
    Hypervector a = Hypervector::random(500, rng);
    Hypervector b = Hypervector::random(500, rng);
    std::size_t prev = 0;
    for (std::size_t p = 0; p <= 500; p += 13) {
        const std::size_t cur = a.hammingPrefix(b, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

TEST(HypervectorTest, XorSelfInverse)
{
    Rng rng(6);
    Hypervector a = Hypervector::random(1000, rng);
    Hypervector b = Hypervector::random(1000, rng);
    EXPECT_EQ((a ^ b) ^ b, a);
}

TEST(HypervectorTest, XorZeroIsIdentity)
{
    Rng rng(7);
    Hypervector a = Hypervector::random(200, rng);
    Hypervector zero(200);
    EXPECT_EQ(a ^ zero, a);
}

TEST(HypervectorTest, XorWithSelfIsZero)
{
    Rng rng(8);
    Hypervector a = Hypervector::random(200, rng);
    EXPECT_EQ((a ^ a).popcount(), 0u);
}

TEST(HypervectorTest, InPlaceXorMatchesBinary)
{
    Rng rng(9);
    Hypervector a = Hypervector::random(300, rng);
    Hypervector b = Hypervector::random(300, rng);
    Hypervector c = a;
    c ^= b;
    EXPECT_EQ(c, a ^ b);
}

TEST(HypervectorTest, RotatedPreservesPopcount)
{
    Rng rng(10);
    for (std::size_t dim : {64u, 100u, 128u, 10000u}) {
        Hypervector a = Hypervector::random(dim, rng);
        for (std::size_t amt : {1u, 7u, 63u, 64u, 65u}) {
            EXPECT_EQ(a.rotated(amt).popcount(), a.popcount())
                << "dim=" << dim << " amt=" << amt;
        }
    }
}

TEST(HypervectorTest, RotateByDimIsIdentity)
{
    Rng rng(11);
    for (std::size_t dim : {64u, 100u, 128u, 1000u}) {
        Hypervector a = Hypervector::random(dim, rng);
        EXPECT_EQ(a.rotated(dim), a);
        EXPECT_EQ(a.rotated(0), a);
    }
}

TEST(HypervectorTest, RotateComposition)
{
    Rng rng(12);
    Hypervector a = Hypervector::random(640, rng);
    EXPECT_EQ(a.rotated(3).rotated(5), a.rotated(8));
}

TEST(HypervectorTest, RotateMatchesBitwiseDefinition)
{
    Rng rng(13);
    for (std::size_t dim : {64u, 100u, 128u, 192u}) {
        Hypervector a = Hypervector::random(dim, rng);
        for (std::size_t amt : {1u, 5u, 64u, 65u}) {
            Hypervector r = a.rotated(amt);
            for (std::size_t i = 0; i < dim; ++i)
                EXPECT_EQ(r.get((i + amt) % dim), a.get(i))
                    << "dim=" << dim << " amt=" << amt << " i=" << i;
        }
    }
}

TEST(HypervectorTest, RotateMatchesPerBitDefinitionAtAnyDimension)
{
    // Word-aligned and ragged dimensions, with shifts on both sides
    // of every word boundary and at and past a full turn.
    Rng rng(14);
    for (const std::size_t dim : {1u, 63u, 65u, 1000u, 10000u, 10001u}) {
        const Hypervector a = Hypervector::random(dim, rng);
        for (const std::size_t amt :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{64}, std::size_t{65}, dim - 1, dim,
              dim + 7}) {
            Hypervector want(dim);
            for (std::size_t i = 0; i < dim; ++i)
                want.set((i + amt) % dim, a.get(i));
            const Hypervector got = a.rotated(amt);
            EXPECT_EQ(got, want) << "dim=" << dim << " amt=" << amt;
            if (dim % Hypervector::bitsPerWord != 0) {
                EXPECT_EQ(got.word(got.words() - 1) >>
                              (dim % Hypervector::bitsPerWord),
                          0u)
                    << "tail not clean: dim=" << dim
                    << " amt=" << amt;
            }
        }
    }
}

TEST(HypervectorTest, RotatedIsNearlyOrthogonal)
{
    Rng rng(14);
    Hypervector a = Hypervector::random(10000, rng);
    const double dist = a.hamming(a.rotated(1));
    EXPECT_NEAR(dist, 5000.0, 300.0);
}

TEST(HypervectorTest, InjectErrorsFlipsExactCount)
{
    Rng rng(15);
    for (std::size_t count : {0u, 1u, 10u, 500u, 1000u}) {
        Hypervector a = Hypervector::random(1000, rng);
        Hypervector b = a;
        b.injectErrors(count, rng);
        EXPECT_EQ(a.hamming(b), count);
    }
}

TEST(HypervectorTest, InjectAllErrorsInvertsEverything)
{
    Rng rng(16);
    Hypervector a = Hypervector::random(128, rng);
    Hypervector b = a;
    b.injectErrors(128, rng);
    EXPECT_EQ(a.hamming(b), 128u);
}

TEST(HypervectorTest, EqualityChecksDimension)
{
    Hypervector a(64), b(65);
    EXPECT_NE(a, b);
}

class HammingMetricTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HammingMetricTest, TriangleInequality)
{
    const std::size_t dim = GetParam();
    Rng rng(17 + dim);
    for (int i = 0; i < 20; ++i) {
        Hypervector a = Hypervector::random(dim, rng);
        Hypervector b = Hypervector::random(dim, rng);
        Hypervector c = Hypervector::random(dim, rng);
        EXPECT_LE(a.hamming(c), a.hamming(b) + b.hamming(c));
    }
}

TEST_P(HammingMetricTest, RandomPairsNearHalfDim)
{
    const std::size_t dim = GetParam();
    Rng rng(18 + dim);
    Hypervector a = Hypervector::random(dim, rng);
    Hypervector b = Hypervector::random(dim, rng);
    // Concentration: random pairs sit within ~6 sigma of D/2.
    const double sigma = std::sqrt(dim) / 2.0;
    EXPECT_NEAR(a.hamming(b), dim / 2.0, 6.0 * sigma + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, HammingMetricTest,
                         ::testing::Values(64, 100, 512, 1000, 4096,
                                           10000));

} // namespace
