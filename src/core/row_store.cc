#include "core/row_store.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/hypervector.hh"
#include "core/parallel_for.hh"

namespace hdham
{

namespace
{

/** One shard's contiguous slice of the row range. */
struct ShardRange
{
    /** First covered row. */
    std::size_t begin = 0;
    /** One past the last covered row. */
    std::size_t end = 0;
};

/**
 * Partition [0, n) into up to @p shards contiguous ascending ranges
 * of near-equal size. Never returns an empty range, so the result
 * may hold fewer than @p shards entries when n < shards. Shard s
 * always covers lower rows than shard s + 1, which is what lets a
 * shard merge preserve the lowest-index tie rule.
 */
std::vector<ShardRange>
shardRanges(std::size_t n, std::size_t shards)
{
    std::vector<ShardRange> ranges;
    if (n == 0 || shards == 0)
        return ranges;
    const std::size_t count = std::min(shards, n);
    const std::size_t chunk = (n + count - 1) / count;
    ranges.reserve(count);
    for (std::size_t begin = 0; begin < n; begin += chunk)
        ranges.push_back({begin, std::min(begin + chunk, n)});
    return ranges;
}

} // namespace

const char *
rowLayoutName(RowLayout layout)
{
    switch (layout) {
    case RowLayout::RowMajor:
        return "row";
    case RowLayout::Sliced:
        return "sliced";
    }
    return "unknown";
}

bool
parseRowLayout(const std::string &name, RowLayout *out)
{
    for (const RowLayout layout :
         {RowLayout::RowMajor, RowLayout::Sliced}) {
        if (name == rowLayoutName(layout)) {
            *out = layout;
            return true;
        }
    }
    return false;
}

RowStore::RowStore(std::size_t dim)
    : numBits(dim),
      rowWords((dim + Hypervector::bitsPerWord - 1) /
               Hypervector::bitsPerWord)
{
    if (dim == 0)
        throw std::invalid_argument("RowStore: zero dimension");
    shards.resize(1);
}

ShardView
RowStore::view(std::size_t shard) const
{
    assert(shard < shards.size());
    const Shard &s = shards[shard];
    ShardView v;
    v.head = s.headData();
    v.headStride = headSliceWords == 0 ? rowWords : headSliceWords;
    v.tail = s.tailData();
    v.tailStride = headSliceWords == 0 ? 0 : tailWords();
    v.firstRow = s.firstRow;
    v.rows = s.rows;
    v.sliceBits = headSliceWords * Hypervector::bitsPerWord;
    return v;
}

void
RowStore::requireOwned(const char *what) const
{
    if (isExternal) {
        throw std::logic_error(
            std::string("RowStore::") + what +
            ": store is bound to read-only external memory");
    }
}

void
RowStore::reserve(std::size_t extraRows)
{
    requireOwned("reserve");
    Shard &last = shards.back();
    const std::size_t headStride =
        headSliceWords == 0 ? rowWords : headSliceWords;
    last.head.reserve(last.head.size() + extraRows * headStride);
    if (headSliceWords != 0)
        last.tail.reserve(last.tail.size() +
                          extraRows * tailWords());
}

std::size_t
RowStore::append(const std::uint64_t *row)
{
    requireOwned("append");
    Shard &last = shards.back();
    if (headSliceWords == 0) {
        last.head.insert(last.head.end(), row, row + rowWords);
    } else {
        last.head.insert(last.head.end(), row,
                         row + headSliceWords);
        last.tail.insert(last.tail.end(), row + headSliceWords,
                         row + rowWords);
    }
    ++last.rows;
    return numRows++;
}

void
RowStore::copyRow(std::size_t row, std::uint64_t *dst) const
{
    std::size_t shard = 0;
    std::size_t local = 0;
    locate(row, &shard, &local);
    const Shard &s = shards[shard];
    if (headSliceWords == 0) {
        std::memcpy(dst, s.headData() + local * rowWords,
                    rowWords * sizeof(std::uint64_t));
        return;
    }
    std::memcpy(dst, s.headData() + local * headSliceWords,
                headSliceWords * sizeof(std::uint64_t));
    std::memcpy(dst + headSliceWords,
                s.tailData() + local * tailWords(),
                tailWords() * sizeof(std::uint64_t));
}

void
RowStore::locate(std::size_t row, std::size_t *shard,
                 std::size_t *local) const
{
    assert(row < numRows);
    // Shards are contiguous ascending ranges; binary-search the
    // first shard whose range ends past the row.
    std::size_t lo = 0;
    std::size_t hi = shards.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (shards[mid].firstRow + shards[mid].rows > row)
            hi = mid;
        else
            lo = mid + 1;
    }
    *shard = lo;
    *local = row - shards[lo].firstRow;
}

void
RowStore::reshape(const StoreLayout &request)
{
    requireOwned("reshape");
    StoreLayout resolved = request;
    if (resolved.layout == RowLayout::Sliced &&
        resolved.slicePrefix == 0) {
        throw std::invalid_argument(
            "RowStore::reshape: sliced layout needs a slice prefix");
    }
    if (resolved.layout == RowLayout::RowMajor)
        resolved.slicePrefix = 0;
    resolved.shards = std::min(
        std::max<std::size_t>(resolveThreads(resolved.shards), 1),
        std::max<std::size_t>(numRows, 1));

    const std::size_t newSlice =
        resolved.layout == RowLayout::Sliced
            ? std::min(rowWords,
                       (resolved.slicePrefix +
                        Hypervector::bitsPerWord - 1) /
                           Hypervector::bitsPerWord)
            : 0;
    // A slice covering the whole row degenerates to row-major
    // records in the head region; store it as such so the scan's
    // split path never runs on an empty tail.
    const std::size_t sliceWords =
        newSlice >= rowWords ? 0 : newSlice;

    const std::vector<ShardRange> ranges =
        shardRanges(numRows, resolved.shards);
    std::vector<Shard> next(ranges.size());

    const std::size_t headStride =
        sliceWords == 0 ? rowWords : sliceWords;
    std::vector<std::uint64_t> scratch(rowWords);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        const ShardRange &range = ranges[i];
        Shard &shard = next[i];
        shard.firstRow = range.begin;
        shard.rows = range.end - range.begin;
        shard.head.resize(shard.rows * headStride);
        if (sliceWords != 0)
            shard.tail.resize(shard.rows * (rowWords - sliceWords));
        for (std::size_t r = 0; r < shard.rows; ++r) {
            copyRow(range.begin + r, scratch.data());
            std::memcpy(shard.head.data() + r * headStride,
                        scratch.data(),
                        headStride * sizeof(std::uint64_t));
            if (sliceWords != 0) {
                std::memcpy(shard.tail.data() +
                                r * (rowWords - sliceWords),
                            scratch.data() + sliceWords,
                            (rowWords - sliceWords) *
                                sizeof(std::uint64_t));
            }
        }
    }

    shards = std::move(next);
    if (shards.empty())
        shards.resize(1);
    headSliceWords = sliceWords;
    spec = resolved;
}

void
RowStore::bindExternal(const StoreLayout &request,
                       std::size_t rowCount,
                       const std::vector<ExternalShard> &ext)
{
    StoreLayout resolved = request;
    if (resolved.layout == RowLayout::Sliced &&
        resolved.slicePrefix == 0) {
        throw std::invalid_argument(
            "RowStore::bindExternal: sliced layout needs a slice "
            "prefix");
    }
    if (resolved.layout == RowLayout::RowMajor)
        resolved.slicePrefix = 0;
    if (ext.empty()) {
        throw std::invalid_argument(
            "RowStore::bindExternal: need at least one shard");
    }
    resolved.shards = ext.size();

    // Same slice derivation as reshape(): a slice covering the whole
    // row degenerates to row-major records in the head region.
    const std::size_t newSlice =
        resolved.layout == RowLayout::Sliced
            ? std::min(rowWords,
                       (resolved.slicePrefix +
                        Hypervector::bitsPerWord - 1) /
                           Hypervector::bitsPerWord)
            : 0;
    const std::size_t sliceWords =
        newSlice >= rowWords ? 0 : newSlice;

    std::vector<Shard> next(ext.size());
    std::size_t covered = 0;
    for (std::size_t i = 0; i < ext.size(); ++i) {
        const ExternalShard &e = ext[i];
        if (e.firstRow != covered) {
            throw std::invalid_argument(
                "RowStore::bindExternal: shard ranges must cover "
                "[0, rows) contiguously in ascending order");
        }
        if (e.rows > 0 && e.head == nullptr) {
            throw std::invalid_argument(
                "RowStore::bindExternal: missing head pointer");
        }
        if (e.rows > 0 && sliceWords != 0 && e.tail == nullptr) {
            throw std::invalid_argument(
                "RowStore::bindExternal: sliced layout needs a tail "
                "pointer");
        }
        // Checked before accumulating so `covered` stays bounded by
        // rowCount and cannot wrap back into range via a later
        // shard.
        if (e.rows > rowCount - covered) {
            throw std::invalid_argument(
                "RowStore::bindExternal: shard rows exceed the row "
                "count");
        }
        covered += e.rows;
        next[i].firstRow = e.firstRow;
        next[i].rows = e.rows;
        // Empty shards still need a non-null sentinel so headData()
        // never falls back to the (empty) owned vector of a store
        // that claims to be external.
        static const std::uint64_t kEmpty = 0;
        next[i].extHead = e.head != nullptr ? e.head : &kEmpty;
        next[i].extTail = sliceWords != 0
                              ? (e.tail != nullptr ? e.tail : &kEmpty)
                              : nullptr;
    }
    if (covered != rowCount) {
        throw std::invalid_argument(
            "RowStore::bindExternal: shard rows do not sum to the "
            "row count");
    }

    shards = std::move(next);
    numRows = rowCount;
    headSliceWords = sliceWords;
    spec = resolved;
    isExternal = true;
}

} // namespace hdham
