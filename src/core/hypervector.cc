#include "core/hypervector.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/distance.hh"

namespace hdham
{

Hypervector::Hypervector(std::size_t dim)
    : numBits(dim),
      storage((dim + bitsPerWord - 1) / bitsPerWord, 0)
{
}

Hypervector
Hypervector::random(std::size_t dim, Rng &rng)
{
    Hypervector hv(dim);
    for (auto &word : hv.storage)
        word = rng.next();
    hv.clearTail();
    return hv;
}

Hypervector
Hypervector::randomBalanced(std::size_t dim, Rng &rng)
{
    Hypervector hv(dim);
    std::vector<std::uint32_t> idx(dim);
    std::iota(idx.begin(), idx.end(), 0);
    // Partial Fisher-Yates: choose dim/2 positions without replacement.
    const std::size_t ones = dim / 2;
    for (std::size_t i = 0; i < ones; ++i) {
        const std::size_t j = i + rng.nextBelow(dim - i);
        std::swap(idx[i], idx[j]);
        hv.set(idx[i], true);
    }
    return hv;
}

Hypervector
Hypervector::fromString(const std::string &bits)
{
    Hypervector hv(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] != '0' && bits[i] != '1')
            throw std::invalid_argument("Hypervector::fromString: "
                                        "expected only '0'/'1'");
        hv.set(i, bits[i] == '1');
    }
    return hv;
}

Hypervector
Hypervector::fromWords(std::size_t dim, const std::uint64_t *words)
{
    Hypervector hv(dim);
    std::copy(words, words + hv.storage.size(),
              hv.storage.begin());
    hv.clearTail();
    return hv;
}

bool
Hypervector::get(std::size_t i) const
{
    assert(i < numBits);
    return (storage[i / bitsPerWord] >> (i % bitsPerWord)) & 1ULL;
}

void
Hypervector::set(std::size_t i, bool value)
{
    assert(i < numBits);
    const std::uint64_t mask = 1ULL << (i % bitsPerWord);
    if (value)
        storage[i / bitsPerWord] |= mask;
    else
        storage[i / bitsPerWord] &= ~mask;
}

void
Hypervector::flip(std::size_t i)
{
    assert(i < numBits);
    storage[i / bitsPerWord] ^= 1ULL << (i % bitsPerWord);
}

std::size_t
Hypervector::popcount() const
{
    std::size_t count = 0;
    for (const auto word : storage)
        count += std::popcount(word);
    return count;
}

std::size_t
Hypervector::hamming(const Hypervector &other) const
{
    assert(other.numBits == numBits);
    return distance::hamming(storage.data(), other.storage.data(),
                             numBits);
}

std::size_t
Hypervector::hammingPrefix(const Hypervector &other,
                           std::size_t prefix) const
{
    assert(other.numBits == numBits);
    assert(prefix <= numBits);
    return distance::hamming(storage.data(), other.storage.data(),
                             prefix);
}

Hypervector
Hypervector::operator^(const Hypervector &other) const
{
    Hypervector result(*this);
    result ^= other;
    return result;
}

Hypervector &
Hypervector::operator^=(const Hypervector &other)
{
    assert(other.numBits == numBits);
    for (std::size_t i = 0; i < storage.size(); ++i)
        storage[i] ^= other.storage[i];
    // XOR of two clean tails stays clean.
    return *this;
}

Hypervector
Hypervector::rotated(std::size_t amount) const
{
    if (numBits == 0)
        return *this;
    amount %= numBits;
    if (amount == 0)
        return *this;
    // Shift and stitch: the result is (x << amount) | (x >> (D -
    // amount)) over the D-bit string, each half a multi-word shift.
    // Bits the up-shift pushes past D are cleared with the tail; the
    // down-shift reads only clean tail zeros past D.
    Hypervector result(numBits);
    const std::size_t n = storage.size();
    const std::uint64_t *src = storage.data();
    std::uint64_t *dst = result.storage.data();

    const std::size_t upWords = amount / bitsPerWord;
    const unsigned upBits = amount % bitsPerWord;
    for (std::size_t j = upWords; j < n; ++j) {
        std::uint64_t v = src[j - upWords] << upBits;
        if (upBits != 0 && j > upWords)
            v |= src[j - upWords - 1] >> (bitsPerWord - upBits);
        dst[j] = v;
    }

    const std::size_t down = numBits - amount;
    const std::size_t downWords = down / bitsPerWord;
    const unsigned downBits = down % bitsPerWord;
    for (std::size_t j = 0; j + downWords < n; ++j) {
        std::uint64_t v = src[j + downWords] >> downBits;
        if (downBits != 0 && j + downWords + 1 < n)
            v |= src[j + downWords + 1] << (bitsPerWord - downBits);
        dst[j] |= v;
    }
    result.clearTail();
    return result;
}

void
Hypervector::injectErrors(std::size_t count, Rng &rng)
{
    assert(count <= numBits);
    // Floyd's algorithm samples `count` distinct indices in O(count)
    // expected time; the membership test uses a flat bitmap.
    std::vector<bool> chosen(numBits, false);
    for (std::size_t j = numBits - count; j < numBits; ++j) {
        std::size_t t = rng.nextBelow(j + 1);
        if (chosen[t])
            t = j;
        chosen[t] = true;
        flip(t);
    }
}

bool
Hypervector::operator==(const Hypervector &other) const
{
    return numBits == other.numBits && storage == other.storage;
}

std::string
Hypervector::toString() const
{
    std::string s(numBits, '0');
    for (std::size_t i = 0; i < numBits; ++i)
        if (get(i))
            s[i] = '1';
    return s;
}

void
Hypervector::clearTail()
{
    const std::size_t rem = numBits % bitsPerWord;
    if (rem && !storage.empty())
        storage.back() &= (1ULL << rem) - 1;
}

} // namespace hdham
