#include "serve/client.hh"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace hdham::serve
{

namespace
{

int
connectedSocket(int family, const sockaddr *addr, socklen_t len,
                const std::string &what)
{
    const int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("serve: socket: ") +
                                 std::strerror(errno));
    if (::connect(fd, addr, len) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("serve: connect " + what + ": " +
                                 std::strerror(err));
    }
    return fd;
}

} // namespace

Client
Client::connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("serve: socket path too long: " +
                                 path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    return Client(connectedSocket(
        AF_UNIX, reinterpret_cast<const sockaddr *>(&addr),
        sizeof(addr), path));
}

Client
Client::connectTcp(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return Client(connectedSocket(
        AF_INET, reinterpret_cast<const sockaddr *>(&addr),
        sizeof(addr), "loopback:" + std::to_string(port)));
}

Client::~Client()
{
    if (fd >= 0)
        ::close(fd);
}

Client::Client(Client &&other) noexcept : fd(other.fd)
{
    other.fd = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        other.fd = -1;
    }
    return *this;
}

Response
Client::call(MsgType type, const std::vector<std::uint8_t> &payload)
{
    writeRequest(fd, type, payload);
    Response resp;
    if (!readResponse(fd, resp))
        throw std::runtime_error(
            "serve: server closed the connection");
    if (resp.type != static_cast<std::uint8_t>(type))
        throw std::runtime_error(
            "serve: response type mismatch (sent " +
            std::to_string(static_cast<int>(type)) + ", got " +
            std::to_string(resp.type) + ")");
    if (resp.status != kOk)
        throw std::runtime_error(std::string(
            resp.payload.begin(), resp.payload.end()));
    return resp;
}

QueryReply
Client::decodeQueryReply(const Response &resp)
{
    Reader in(resp.payload);
    QueryReply reply;
    reply.sequence = in.u64();
    const std::uint32_t n = in.u32();
    // Each match is two u64s and a str.
    reply.results.reserve(in.plausibleCount(n, 20));
    for (std::uint32_t i = 0; i < n; ++i) {
        MatchReply m;
        m.classId = in.u64();
        m.distance = in.u64();
        m.label = in.str();
        reply.results.push_back(std::move(m));
    }
    return reply;
}

PingReply
Client::ping()
{
    const Response resp = call(MsgType::Ping, {});
    Reader in(resp.payload);
    PingReply reply;
    reply.protocol = in.u32();
    reply.sequence = in.u64();
    reply.dim = in.u64();
    reply.classes = in.u64();
    return reply;
}

QueryReply
Client::classify(const std::vector<std::string> &texts)
{
    Writer out;
    out.u32(static_cast<std::uint32_t>(texts.size()));
    for (const std::string &text : texts)
        out.str(text);
    return decodeQueryReply(call(MsgType::Classify, out.take()));
}

QueryReply
Client::search(const std::vector<Hypervector> &queries)
{
    Writer out;
    out.u32(static_cast<std::uint32_t>(queries.size()));
    for (const Hypervector &q : queries)
        out.words(q.data(), q.words());
    return decodeQueryReply(call(MsgType::Search, out.take()));
}

TopKReply
Client::topK(std::size_t k, const std::vector<Hypervector> &queries)
{
    Writer out;
    out.u32(static_cast<std::uint32_t>(k));
    out.u32(static_cast<std::uint32_t>(queries.size()));
    for (const Hypervector &q : queries)
        out.words(q.data(), q.words());
    const Response resp = call(MsgType::TopK, out.take());
    Reader in(resp.payload);
    TopKReply reply;
    reply.sequence = in.u64();
    const std::uint32_t n = in.u32();
    // Each list is a u32 count of (u64, u64) entries.
    reply.results.reserve(in.plausibleCount(n, 4));
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t m = in.u32();
        std::vector<RankedReply> ranked;
        ranked.reserve(in.plausibleCount(m, 16));
        for (std::uint32_t j = 0; j < m; ++j) {
            RankedReply r;
            r.classId = in.u64();
            r.distance = in.u64();
            ranked.push_back(r);
        }
        reply.results.push_back(std::move(ranked));
    }
    return reply;
}

UpdateReply
Client::update(
    UpdateMode mode,
    const std::vector<std::pair<std::string, std::string>> &samples,
    std::uint32_t threshold)
{
    Writer out;
    out.u8(static_cast<std::uint8_t>(mode));
    out.u32(threshold);
    out.u32(static_cast<std::uint32_t>(samples.size()));
    for (const auto &[label, text] : samples) {
        out.str(label);
        out.str(text);
    }
    const Response resp = call(MsgType::Update, out.take());
    Reader in(resp.payload);
    UpdateReply reply;
    reply.applied = in.u32();
    reply.pendingClasses = in.u64();
    return reply;
}

SwapReply
Client::swap()
{
    const Response resp = call(MsgType::Swap, {});
    Reader in(resp.payload);
    SwapReply reply;
    reply.sequence = in.u64();
    reply.buildUs = in.f64();
    reply.swapUs = in.f64();
    return reply;
}

std::string
Client::stats()
{
    const Response resp = call(MsgType::Stats, {});
    return std::string(resp.payload.begin(), resp.payload.end());
}

std::string
Client::traceJson()
{
    const Response resp = call(MsgType::Trace, {});
    return std::string(resp.payload.begin(), resp.payload.end());
}

void
Client::shutdownServer()
{
    call(MsgType::Shutdown, {});
}

} // namespace hdham::serve
