/**
 * @file
 * hdham.serve.v1 payload decoding against hostile sizes: a field
 * that declares more elements than its payload holds must be refused
 * before anything is allocated for it. This TU replaces the global
 * operator new so a test can see the largest allocation a decode
 * asks for.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace
{

std::atomic<bool> gTracking{false};
std::atomic<std::size_t> gLargest{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (gTracking.load(std::memory_order_relaxed)) {
        std::size_t seen = gLargest.load(std::memory_order_relaxed);
        while (size > seen &&
               !gLargest.compare_exchange_weak(seen, size)) {
        }
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not see the free() meet a
// pointer from operator new at an inlined call site.
__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using hdham::serve::Reader;

TEST(ReaderTest, WordCountIsCheckedBeforeAllocating)
{
    // A words field declaring 2^20 words (8 MiB) over a payload that
    // holds 4 KiB of them. Decoding must fail naming the declared
    // byte count, and never ask for more memory than the payload
    // itself occupies.
    std::vector<std::uint8_t> payload(4 + 4096, 0);
    const std::uint32_t declared = 1u << 20;
    for (int i = 0; i < 4; ++i)
        payload[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(declared >> (8 * i));

    Reader reader(payload);
    std::string message;
    gLargest = 0;
    gTracking = true;
    try {
        reader.words();
    } catch (const std::runtime_error &e) {
        message = e.what();
    }
    gTracking = false;

    EXPECT_LE(gLargest.load(), payload.size());
    EXPECT_NE(message.find("needed " +
                           std::to_string(std::size_t(declared) * 8) +
                           " bytes"),
              std::string::npos)
        << message;
}

} // namespace
