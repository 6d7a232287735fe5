#include "core/encoder.hh"

#include <cassert>
#include <stdexcept>

namespace hdham
{

Encoder::Encoder(const ItemMemory &items, std::size_t n)
    : n(n), dimension(items.dim())
{
    if (n == 0)
        throw std::invalid_argument("Encoder: n must be positive");
    rotatedSeeds.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        rotatedSeeds[p].reserve(items.size());
        for (std::size_t s = 0; s < items.size(); ++s)
            rotatedSeeds[p].push_back(items[s].rotated(p));
    }
}

Hypervector
Encoder::encodeNgram(const std::vector<std::size_t> &symbols) const
{
    assert(symbols.size() == n);
    // Oldest symbol gets the most rotation: for a-b-c the result is
    // rho^2(A) ^ rho(B) ^ C.
    Hypervector result = rotatedSeeds[n - 1][symbols[0]];
    for (std::size_t i = 1; i < n; ++i)
        result ^= rotatedSeeds[n - 1 - i][symbols[i]];
    return result;
}

std::size_t
Encoder::encodeInto(const std::string &text, Bundler &bundler) const
{
    if (text.size() < n)
        return 0;
    std::vector<std::size_t> ids(text.size());
    for (std::size_t i = 0; i < text.size(); ++i)
        ids[i] = TextAlphabet::symbolOf(text[i]);

    Hypervector gram(dimension);
    std::size_t count = 0;
    for (std::size_t i = 0; i + n <= ids.size(); ++i) {
        // Rebuild each n-gram from the precomputed rotations; for the
        // paper's n = 3 this is two XOR passes per position.
        gram = rotatedSeeds[n - 1][ids[i]];
        for (std::size_t k = 1; k < n; ++k)
            gram ^= rotatedSeeds[n - 1 - k][ids[i + k]];
        bundler.add(gram);
        ++count;
    }
    return count;
}

Hypervector
Encoder::encode(const std::string &text, Rng &rng) const
{
    if (text.size() < n)
        throw std::invalid_argument("Encoder::encode: text shorter "
                                    "than the n-gram size");
    Bundler bundler(dimension);
    encodeInto(text, bundler);
    return bundler.majority(rng);
}

} // namespace hdham
