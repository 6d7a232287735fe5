/**
 * @file
 * hdham.serve.v1 payload decoding against hostile sizes, on both
 * sides of the socket: a field that declares more elements than its
 * payload holds must be refused before anything is allocated for it.
 * This TU replaces the global operator new so a test can see the
 * largest allocation a decode asks for.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hypervector.hh"
#include "serve/client.hh"
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

using hdham::Hypervector;
using hdham::serve::Client;
using hdham::serve::MsgType;
using hdham::serve::Reader;
using hdham::serve::Writer;

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

/**
 * A server that answers one request, on one connection, with a fixed
 * OK payload under the request's own type.
 */
class CannedReplyServer
{
  public:
    explicit CannedReplyServer(std::vector<std::uint8_t> reply)
        : path("/tmp/hdham_canned_" + std::to_string(::getpid()) +
               ".sock"),
          listenFd(::socket(AF_UNIX, SOCK_STREAM, 0))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        std::remove(path.c_str());
        if (listenFd < 0 ||
            ::bind(listenFd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd, 1) != 0)
            throw std::runtime_error("cannot listen on " + path);
        thread = std::thread([this, reply = std::move(reply)] {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return;
            hdham::serve::Frame request;
            if (hdham::serve::readFrame(fd, request))
                hdham::serve::writeResponse(fd, request.type,
                                            hdham::serve::kOk, reply);
            ::close(fd);
        });
    }

    CannedReplyServer(const CannedReplyServer &) = delete;
    CannedReplyServer &operator=(const CannedReplyServer &) = delete;

    ~CannedReplyServer()
    {
        // Wakes a thread still blocked in accept(), should the client
        // never have connected.
        ::shutdown(listenFd, SHUT_RDWR);
        thread.join();
        ::close(listenFd);
        std::remove(path.c_str());
    }

    const std::string path;

  private:
    int listenFd;
    std::thread thread;
};

TEST(ClientTest, ReplyCountIsCheckedBeforeAllocating)
{
    // Search and TopK replies that declare 2^32 - 1 entries in a
    // 16-byte payload. Each call must fail as a truncated payload
    // and never ask for more memory than a few entries take.
    for (const MsgType type : {MsgType::Search, MsgType::TopK}) {
        Writer w;
        w.u64(1);           // snapshot sequence
        w.u32(0xffffffffu); // declared entries
        w.u32(0);           // one empty top-k list, or a stray word
        CannedReplyServer server(w.take());
        Client client = Client::connectUnix(server.path);
        const std::vector<Hypervector> queries{Hypervector(64)};

        std::string message;
        gLargest = 0;
        gTracking = true;
        try {
            if (type == MsgType::Search)
                client.search(queries);
            else
                client.topK(1, queries);
        } catch (const std::runtime_error &e) {
            message = e.what();
        } catch (const std::exception &e) {
            message = std::string("not a protocol error: ") + e.what();
        }
        gTracking = false;

        const std::string where =
            "type " + std::to_string(static_cast<int>(type));
        EXPECT_LE(gLargest.load(), 4096u) << where;
        EXPECT_NE(message.find("truncated payload"), std::string::npos)
            << where << ": " << message;
    }
}

} // namespace
