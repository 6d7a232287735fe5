/**
 * @file
 * Streaming majority accumulator for bundling many hypervectors.
 *
 * Training a language hypervector bundles on the order of 10^5..10^6
 * trigram hypervectors (Section II-A). Materializing them for
 * ops::bundle would be prohibitively slow and large, so Bundler keeps
 * per-component ones-counts and finalizes with a single majority pass.
 *
 * The counts are bit-sliced: counter plane p holds bit p of every
 * component's count, packed 64 components per word like the
 * hypervectors themselves. Adding a hypervector is a word-parallel
 * ripple-carry increment (XOR into a plane, AND out the carry to the
 * next) that stops as soon as a group of words has no carry left, so
 * the amortized cost per input word is a few planes whatever the
 * count. Planes are grown on demand -- ceil(log2(count + 1)) of them,
 * one hypervector's worth of words each -- so a bundler of one input
 * costs one plane, and every count is exact. The majority is a
 * word-parallel compare of the planes against count / 2.
 */

#ifndef HDHAM_CORE_BUNDLER_HH
#define HDHAM_CORE_BUNDLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hypervector.hh"
#include "core/random.hh"

namespace hdham
{

/**
 * Accumulates hypervectors and produces their component-wise majority.
 */
class Bundler
{
  public:
    /** Create an accumulator for dimension @p dim. */
    explicit Bundler(std::size_t dim);

    /** Dimensionality of accepted hypervectors. */
    std::size_t dim() const { return numBits; }

    /** Number of hypervectors accumulated so far. */
    std::uint64_t count() const { return added; }

    /**
     * Accumulate one hypervector.
     * @pre hv.dim() == dim().
     */
    void add(const Hypervector &hv);

    /**
     * Ones-count of component @p i over everything added so far.
     * @pre i < dim().
     */
    std::uint32_t onesCount(std::size_t i) const;

    /**
     * Finalize: component-wise majority of all added hypervectors.
     * Components with an exact tie (possible only for an even count)
     * are broken by a fair coin from @p rng, as the paper's augmented
     * majority requires.
     *
     * The accumulator remains valid and can keep accepting inputs.
     *
     * @pre count() > 0.
     */
    Hypervector majority(Rng &rng) const;

    /** Reset to the empty state. */
    void clear();

  private:
    std::size_t numBits;
    /** Words per plane (one hypervector's storage). */
    std::size_t numWords;
    std::uint64_t added = 0;
    /** Planes allocated: enough to hold @c added exactly. */
    std::size_t numPlanes = 0;
    /**
     * Counter planes, plane-major: bit b of planes[p * numWords + w]
     * is bit p of the count of component 64 * w + b.
     */
    std::vector<std::uint64_t> planes;
};

} // namespace hdham

#endif // HDHAM_CORE_BUNDLER_HH
