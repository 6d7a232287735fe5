#include "core/bundler.hh"

#include <cassert>
#include <stdexcept>

namespace hdham
{

namespace
{

/**
 * Add the @p K input words at @p in to the counts of the same words of
 * every plane, starting at @p plane (plane stride @p stride words):
 * XOR each carry into its plane word, keep the AND as the carry into
 * the next plane, and stop once no carry is left. The K words share
 * one loop exit, which keeps the branch predictable and the carry
 * chains independent. The planes hold every count exactly, so the
 * carry dies before it can leave the top plane.
 */
template <std::size_t K>
inline void
ripple(const std::uint64_t *in, std::uint64_t *plane,
       std::size_t stride)
{
    std::uint64_t carry[K];
    std::uint64_t any = 0;
    for (std::size_t k = 0; k < K; ++k)
        any |= carry[k] = in[k];
    for (; any != 0; plane += stride) {
        any = 0;
        for (std::size_t k = 0; k < K; ++k) {
            const std::uint64_t x = plane[k];
            plane[k] = x ^ carry[k];
            carry[k] &= x;
            any |= carry[k];
        }
    }
}

/** Words rippled together by Bundler::add. */
constexpr std::size_t rippleGroup = 4;

} // namespace

Bundler::Bundler(std::size_t dim)
    : numBits(dim),
      numWords((dim + Hypervector::bitsPerWord - 1) /
               Hypervector::bitsPerWord)
{
}

void
Bundler::add(const Hypervector &hv)
{
    assert(hv.dim() == numBits);
    if ((added + 1) >> numPlanes) {
        // The new count needs one more bit: grow by exactly one plane.
        planes.reserve(planes.size() + numWords);
        planes.resize(planes.size() + numWords, 0);
        ++numPlanes;
    }
    const std::uint64_t *in = hv.data();
    std::uint64_t *base = planes.data();
    std::size_t w = 0;
    for (; w + rippleGroup <= numWords; w += rippleGroup)
        ripple<rippleGroup>(in + w, base + w, numWords);
    for (; w < numWords; ++w)
        ripple<1>(in + w, base + w, numWords);
    ++added;
}

std::uint32_t
Bundler::onesCount(std::size_t i) const
{
    assert(i < numBits);
    const std::size_t w = i / Hypervector::bitsPerWord;
    const unsigned bit = i % Hypervector::bitsPerWord;
    std::uint64_t count = 0;
    for (std::size_t p = 0; p < numPlanes; ++p)
        count |= ((planes[p * numWords + w] >> bit) & 1ULL) << p;
    return static_cast<std::uint32_t>(count);
}

Hypervector
Bundler::majority(Rng &rng) const
{
    if (added == 0)
        throw std::logic_error("Bundler::majority: nothing accumulated");
    // 2 * count > added  <=>  count > floor(added / 2), for either
    // parity; 2 * count == added only for an even count.
    const std::uint64_t half = added / 2;
    const bool even = added % 2 == 0;
    std::vector<std::uint64_t> out(numWords);
    for (std::size_t w = 0; w < numWords; ++w) {
        // Compare every count in the word against half, most
        // significant plane first.
        std::uint64_t above = 0, equal = ~0ULL;
        for (std::size_t p = numPlanes; p-- > 0;) {
            const std::uint64_t x = planes[p * numWords + w];
            if ((half >> p) & 1ULL) {
                equal &= x;
            } else {
                above |= equal & x;
                equal &= ~x;
            }
        }
        // Ties draw one coin each, in ascending component order. An
        // even count has half >= 1, so some plane has masked equal
        // down to real components: the clean tail draws nothing.
        if (even) {
            for (std::uint64_t t = equal; t != 0; t &= t - 1)
                if (rng.nextBool())
                    above |= t & (~t + 1);
        }
        out[w] = above;
    }
    return Hypervector::fromWords(numBits, out.data());
}

void
Bundler::clear()
{
    added = 0;
    numPlanes = 0;
    planes.clear();
}

} // namespace hdham
