/**
 * @file
 * Functional suite for the resident server and hdham.serve.v1.
 *
 * Runs a Server in-process on a unix-domain (and once a loopback
 * TCP) socket, drives it with serve::Client, and checks every
 * request type against answers computed locally from the same model
 * file: search/top-k results are bit-identical to the direct engine,
 * classify matches a local encode with the CLI's tie-break seed,
 * update->swap publishes a grown snapshot that subsequent queries
 * observe, and error paths -- down to every truncation and seeded
 * single-byte mutation of each request type -- come back as error
 * responses, not closed connections.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/model_file.hh"
#include "core/random.hh"
#include "lang/pipeline.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/temp_path.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Encoder;
using hdham::Hypervector;
using hdham::ItemMemory;
using hdham::Rng;
using hdham::TextAlphabet;
using hdham::serve::Client;
using hdham::serve::MsgType;
using hdham::serve::PingReply;
using hdham::serve::QueryReply;
using hdham::serve::Reader;
using hdham::serve::Response;
using hdham::serve::Server;
using hdham::serve::ServerConfig;
using hdham::serve::SwapReply;
using hdham::serve::TopKReply;
using hdham::serve::UpdateReply;
using hdham::serve::Writer;

constexpr std::size_t kDim = 512;
constexpr std::size_t kClasses = 12;
constexpr std::uint64_t kItemSeed = 0x6974656dULL;

AssociativeMemory
fixtureMemory()
{
    Rng rng(0x73727631ULL);
    AssociativeMemory am(kDim);
    for (std::size_t i = 0; i < kClasses; ++i)
        am.store(Hypervector::random(kDim, rng),
                 "label" + std::to_string(i));
    return am;
}

/**
 * Write the fixture model (with an item memory unless @p withItems
 * is false) to a per-process, per-test temp file.
 */
std::string
writeFixtureModel(const std::string &name, bool withItems = true)
{
    const std::string path = hdham::test::uniqueTempPath(name);
    const AssociativeMemory am = fixtureMemory();
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    hdham::modelfile::SaveOptions opts;
    if (withItems)
        opts.items = &items;
    hdham::modelfile::save(path, am, opts);
    return path;
}

std::vector<Hypervector>
fixtureQueries(std::size_t count)
{
    Rng rng(0x71737276ULL);
    std::vector<Hypervector> queries;
    for (std::size_t q = 0; q < count; ++q)
        queries.push_back(Hypervector::random(kDim, rng));
    return queries;
}

/** An in-process server on a fresh unix socket, torn down on exit. */
struct ServerFixture
{
    explicit ServerFixture(ServerConfig cfg = {},
                           const std::string &tag = "s",
                           bool withItems = true)
        : modelPath(writeFixtureModel(
              "server_test_" + tag + ".hdc", withItems))
    {
        // Keep the path short: sockaddr_un caps sun_path around 108
        // characters and TempDir can be long in some environments.
        socketPath = "/tmp/hdham_" + tag + "_" +
                     std::to_string(::getpid()) + ".sock";
        cfg.unixPath = socketPath;
        server.emplace(std::move(cfg));
        server->loadModel(modelPath);
        server->start();
    }

    ~ServerFixture()
    {
        server->stop();
        server.reset();
        std::remove(modelPath.c_str());
        std::remove(socketPath.c_str());
    }

    Client connect() { return Client::connectUnix(socketPath); }

    std::string modelPath;
    std::string socketPath;
    std::optional<Server> server;
};

TEST(ServerTest, PingReportsProtocolAndModelShape)
{
    ServerFixture fx({}, "ping");
    Client client = fx.connect();
    const PingReply reply = client.ping();
    EXPECT_EQ(reply.protocol, hdham::serve::protocolVersion);
    EXPECT_EQ(reply.sequence, 1u);
    EXPECT_EQ(reply.dim, kDim);
    EXPECT_EQ(reply.classes, kClasses);
}

TEST(ServerTest, SearchMatchesDirectEngineBitForBit)
{
    ServerFixture fx({}, "search");
    Client client = fx.connect();
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(9);

    const QueryReply reply = client.search(queries);
    EXPECT_EQ(reply.sequence, 1u);
    ASSERT_EQ(reply.results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto want = local.search(queries[i]);
        EXPECT_EQ(reply.results[i].classId, want.classId);
        EXPECT_EQ(reply.results[i].distance, want.bestDistance);
        EXPECT_EQ(reply.results[i].label,
                  local.labelOf(want.classId));
    }
}

TEST(ServerTest, TopKMatchesDirectEngine)
{
    ServerFixture fx({}, "topk");
    Client client = fx.connect();
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(5);

    const TopKReply reply = client.topK(4, queries);
    EXPECT_EQ(reply.sequence, 1u);
    ASSERT_EQ(reply.results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto want = local.searchTopK(queries[i], 4);
        ASSERT_EQ(reply.results[i].size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
            EXPECT_EQ(reply.results[i][j].classId,
                      want[j].classId);
            EXPECT_EQ(reply.results[i][j].distance,
                      want[j].distance);
        }
    }
}

TEST(ServerTest, ClassifyMatchesLocalEncodeWithCliSeed)
{
    ServerFixture fx({}, "classify");
    Client client = fx.connect();
    const std::vector<std::string> texts = {
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
    };

    const QueryReply reply = client.classify(texts);
    ASSERT_EQ(reply.results.size(), texts.size());

    // Replicate the server's (and `hdham classify`'s) encode: the
    // model-embedded item memory, trigrams, and the CLI tie-break
    // seed -- served classification is CLI classification.
    const AssociativeMemory local = fixtureMemory();
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    const hdham::lang::PipelineConfig defaults;
    const Encoder encoder(items, defaults.ngram);
    Rng rng(defaults.seed ^ 0x636c6966ULL);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const auto want =
            local.search(encoder.encode(texts[i], rng));
        EXPECT_EQ(reply.results[i].classId, want.classId);
        EXPECT_EQ(reply.results[i].distance, want.bestDistance);
    }
}

/**
 * Classify @p texts through the server and expect, text by text, the
 * answer of a fresh in-process trigram encoder over @p items (with
 * the CLI tie-break seed) searched against @p memory.
 */
void
expectClassifyMatchesLocal(Client &client,
                           const std::vector<std::string> &texts,
                           const ItemMemory &items,
                           const AssociativeMemory &memory)
{
    const QueryReply reply = client.classify(texts);
    ASSERT_EQ(reply.results.size(), texts.size());
    const hdham::lang::PipelineConfig defaults;
    const Encoder encoder(items, defaults.ngram);
    Rng rng(defaults.seed ^ 0x636c6966ULL);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const auto want = memory.search(encoder.encode(texts[i], rng));
        EXPECT_EQ(reply.results[i].classId, want.classId) << i;
        EXPECT_EQ(reply.results[i].distance, want.bestDistance) << i;
        EXPECT_EQ(reply.results[i].label, memory.labelOf(want.classId))
            << i;
    }
}

const std::vector<std::string> kClassifyTexts = {
    "the quick brown fox jumps over the lazy dog",
    "pack my box with five dozen liquor jugs",
    "aaaa bbbb cccc dddd eeee ffff gggg",
};

TEST(ServerTest, ClassifyAfterUpdateAndSwapMatchesLocalEncode)
{
    ServerFixture fx({}, "clsswap");
    Client client = fx.connect();
    client.update(hdham::serve::kLabeled,
                  {{"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"}});
    ASSERT_EQ(client.swap().sequence, 2u);

    const hdham::snapshot::SnapshotRef pin =
        fx.server->snapshots().acquire();
    ASSERT_EQ(pin->sequence(), 2u);
    const ItemMemory items(TextAlphabet::size, kDim, kItemSeed);
    expectClassifyMatchesLocal(client, kClassifyTexts, items,
                               pin->memory());
}

TEST(ServerTest, ClassifyFollowsAPublishedItemMemory)
{
    ServerFixture fx({}, "clsitems");
    Client client = fx.connect();
    const ItemMemory original(TextAlphabet::size, kDim, kItemSeed);
    expectClassifyMatchesLocal(client, kClassifyTexts, original,
                               fixtureMemory());

    // Publish the same classes under different encoder seeds: the
    // next classify must encode with the new seeds, not the ones the
    // server loaded.
    const ItemMemory other(TextAlphabet::size, kDim, kItemSeed + 1);
    fx.server->snapshots().publish(
        hdham::snapshot::MemorySnapshot::fromMemory(
            fixtureMemory(), {}, other));
    const QueryReply published = client.classify(kClassifyTexts);
    expectClassifyMatchesLocal(client, kClassifyTexts, other,
                               fixtureMemory());

    // The check can tell the two item memories apart.
    const hdham::lang::PipelineConfig defaults;
    const Encoder stale(original, defaults.ngram);
    Rng rng(defaults.seed ^ 0x636c6966ULL);
    const AssociativeMemory local = fixtureMemory();
    bool differs = false;
    for (std::size_t i = 0; i < kClassifyTexts.size(); ++i)
        differs |= published.results[i].distance !=
                   local.search(stale.encode(kClassifyTexts[i], rng))
                       .bestDistance;
    EXPECT_TRUE(differs);
}

TEST(ServerTest, ClassifyWithoutEmbeddedItemsUsesLibraryDefaults)
{
    ServerFixture fx({}, "clsfallback", /*withItems=*/false);
    Client client = fx.connect();
    const ItemMemory defaults(TextAlphabet::size, kDim,
                              hdham::lang::PipelineConfig{}.seed);
    expectClassifyMatchesLocal(client, kClassifyTexts, defaults,
                               fixtureMemory());

    // Snapshots published from the update builder carry the same
    // default seeds.
    client.update(hdham::serve::kLabeled,
                  {{"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"}});
    ASSERT_EQ(client.swap().sequence, 2u);
    const hdham::snapshot::SnapshotRef pin =
        fx.server->snapshots().acquire();
    ASSERT_TRUE(pin->hasItemMemory());
    expectClassifyMatchesLocal(client, kClassifyTexts, defaults,
                               pin->memory());
}

TEST(ServerTest, UpdateThenSwapPublishesGrownSnapshot)
{
    ServerFixture fx({}, "update");
    Client client = fx.connect();

    const UpdateReply staged = client.update(
        hdham::serve::kLabeled,
        {{"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"},
         {"newlang", "aaab bbbc cccd ddde eeef fffg gggh"}});
    EXPECT_EQ(staged.applied, 2u);
    EXPECT_EQ(staged.pendingClasses, kClasses + 1);

    // Not visible until the swap.
    EXPECT_EQ(client.ping().classes, kClasses);

    const SwapReply swapped = client.swap();
    EXPECT_EQ(swapped.sequence, 2u);
    EXPECT_GE(swapped.buildUs, 0.0);
    EXPECT_GE(swapped.swapUs, 0.0);

    const PingReply after = client.ping();
    EXPECT_EQ(after.sequence, 2u);
    EXPECT_EQ(after.classes, kClasses + 1);

    // The new class is servable: its own training text classifies
    // into it.
    const QueryReply reply = client.classify(
        {"aaaa bbbb cccc dddd eeee ffff gggg"});
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.results[0].label, "newlang");
    EXPECT_EQ(reply.sequence, 2u);
}

TEST(ServerTest, RejectedUpdateStagesNothing)
{
    // A valid sample followed by one shorter than the n-gram size:
    // the whole Update is refused, so the next Swap publishes the
    // model's own classes and no more.
    ServerFixture fx({}, "reject");
    Client client = fx.connect();
    try {
        client.update(hdham::serve::kLabeled,
                      {{"newlang", "aaaa bbbb cccc dddd eeee ffff gggg"},
                       {"other", "ab"}});
        FAIL() << "a short sample must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("n-gram"),
                  std::string::npos)
            << e.what();
    }

    EXPECT_EQ(client.swap().sequence, 2u);
    const PingReply after = client.ping();
    EXPECT_EQ(after.sequence, 2u);
    EXPECT_EQ(after.classes, kClasses);
}

TEST(ServerTest, AssimilateMergesIntoNearestClass)
{
    ServerFixture fx({}, "assim");
    Client client = fx.connect();
    // An impossible-to-meet threshold forces a new class...
    const UpdateReply created = client.update(
        hdham::serve::kAssimilate,
        {{"novel", "zzzz yyyy xxxx wwww vvvv uuuu tttt"}}, 0);
    EXPECT_EQ(created.pendingClasses, kClasses + 1);
    // ...and a full-width threshold merges the next sample into an
    // existing class instead of creating another.
    const UpdateReply merged = client.update(
        hdham::serve::kAssimilate,
        {{"ignored", "zzzz yyyy xxxx wwww vvvv uuuu tttt"}},
        static_cast<std::uint32_t>(kDim));
    EXPECT_EQ(merged.pendingClasses, kClasses + 1);
}

TEST(ServerTest, ErrorsComeBackAsResponsesNotDisconnects)
{
    ServerFixture fx({}, "errors");
    Client client = fx.connect();

    // Wrong query width: an error response naming both widths.
    Rng rng(5);
    try {
        client.search({Hypervector::random(kDim / 2, rng)});
        FAIL() << "short query must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("words"),
                  std::string::npos);
    }

    // Text shorter than the n-gram size.
    EXPECT_THROW(client.classify({"ab"}), std::runtime_error);

    // The connection survives both errors.
    EXPECT_EQ(client.ping().classes, kClasses);
}

TEST(ServerTest, StatsReportsServingGauges)
{
    ServerFixture fx({}, "stats");
    Client client = fx.connect();
    client.search(fixtureQueries(3));
    const std::string json = client.stats();
    EXPECT_NE(json.find("hdham.metrics.v1"), std::string::npos);
    EXPECT_NE(json.find("snapshot.sequence"), std::string::npos);
    EXPECT_NE(json.find("snapshot.swaps"), std::string::npos);
    EXPECT_NE(json.find("serve.queries"), std::string::npos);
    EXPECT_NE(json.find("model.resident_bytes"),
              std::string::npos);
    EXPECT_NE(json.find("hdham.model.v1"), std::string::npos);
}

TEST(ServerTest, TraceGatedByConfig)
{
    {
        ServerFixture fx({}, "notrace");
        Client client = fx.connect();
        EXPECT_THROW(client.traceJson(), std::runtime_error);
    }
    {
        ServerConfig cfg;
        cfg.trace = true;
        ServerFixture fx(cfg, "trace");
        Client client = fx.connect();
        client.search(fixtureQueries(2));
        const std::string json = client.traceJson();
        EXPECT_NE(json.find("traceEvents"), std::string::npos);
    }
}

TEST(ServerTest, ShutdownRequestStopsTheServer)
{
    ServerFixture fx({}, "shutdown");
    Client client = fx.connect();
    client.shutdownServer();
    fx.server->wait(); // returns because the request set stopping
    EXPECT_THROW(fx.connect(), std::runtime_error);
}

TEST(ServerTest, TcpLoopbackServesTheSameProtocol)
{
    const std::string model = writeFixtureModel("server_tcp.hdc");
    ServerConfig cfg; // no unixPath: loopback TCP on a free port
    Server server(std::move(cfg));
    server.loadModel(model);
    server.start();
    ASSERT_NE(server.port(), 0);

    Client client = Client::connectTcp(server.port());
    EXPECT_EQ(client.ping().classes, kClasses);
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(4);
    const QueryReply reply = client.search(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(reply.results[i].classId,
                  local.search(queries[i]).classId);

    server.stop();
    std::remove(model.c_str());
}

TEST(ServerTest, ShortConnectionsDoNotAccumulate)
{
    // A finished connection's thread must be joined while the server
    // runs, not only at stop(): an unjoined thread keeps its stack
    // and guard page mapped. /proc/self/task cannot show the leak
    // (exited threads leave it), /proc/self/maps can. One connection
    // stays open throughout, so the reaping has to step around a
    // live entry, and must leave it serving.
    ServerFixture fx({}, "churn");
    Client held = fx.connect();
    const auto mapsLines = [] {
        std::ifstream maps("/proc/self/maps");
        std::size_t lines = 0;
        for (std::string line; std::getline(maps, line);)
            ++lines;
        return lines;
    };
    // Warm up first: malloc arenas and the thread-stack cache map
    // once and are then reused.
    for (int i = 0; i < 20; ++i)
        fx.connect().ping();
    const std::size_t before = mapsLines();
    for (int i = 0; i < 500; ++i)
        fx.connect().ping();
    EXPECT_LT(mapsLines(), before + 50);
    EXPECT_EQ(held.ping().classes, kClasses);
}

TEST(ServerTest, ConcurrentClientsDuringSwapsSeeCoherentAnswers)
{
    ServerFixture fx({}, "soak");
    const AssociativeMemory local = fixtureMemory();
    const std::vector<Hypervector> queries = fixtureQueries(6);
    // Generation 1 expectations; later generations only add classes,
    // so generation-1 winners stay valid unless the new class wins.
    // To keep the check exact we assert on the response's sequence
    // number instead: every response must be internally coherent and
    // sequence-stamped, and generation-1 responses must match the
    // local engine bit for bit.
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> failures{0};
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            Client client = fx.connect();
            for (int round = 0; round < 50; ++round) {
                const QueryReply reply = client.search(queries);
                if (reply.results.size() != queries.size())
                    ++failures;
                if (reply.sequence == 1) {
                    for (std::size_t i = 0; i < queries.size();
                         ++i) {
                        const auto want = local.search(queries[i]);
                        if (reply.results[i].classId !=
                                want.classId ||
                            reply.results[i].distance !=
                                want.bestDistance)
                            ++failures;
                    }
                }
            }
        });
    }
    Client updater = fx.connect();
    for (int swapRound = 0; swapRound < 3; ++swapRound) {
        updater.update(hdham::serve::kLabeled,
                       {{"extra" + std::to_string(swapRound),
                         "mmmm nnnn oooo pppp qqqq rrrr ssss"}});
        updater.swap();
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(updater.ping().sequence, 4u);
}

/** A raw unix-socket connection, for frames the Client never sends. */
struct RawConnection
{
    explicit RawConnection(const std::string &path)
        : fd(::socket(AF_UNIX, SOCK_STREAM, 0))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("raw connect failed: " + path);
    }
    ~RawConnection() { ::close(fd); }
    RawConnection(const RawConnection &) = delete;
    RawConnection &operator=(const RawConnection &) = delete;

    /** Send one frame; false when the server closed the connection. */
    bool call(MsgType type, const std::vector<std::uint8_t> &payload,
              Response &resp)
    {
        hdham::serve::writeRequest(fd, type, payload);
        return hdham::serve::readResponse(fd, resp);
    }

    int fd;
};

/**
 * Empty when @p resp is an error response with a message, or an OK
 * response that decodes as @p type's reply with no byte left over;
 * otherwise what is wrong with it.
 */
std::string
malformedReply(MsgType type, const Response &resp)
{
    if (resp.type != static_cast<std::uint8_t>(type))
        return "reply type " + std::to_string(resp.type);
    if (resp.status == hdham::serve::kError)
        return resp.payload.empty() ? "error without a message" : "";
    if (resp.status != hdham::serve::kOk)
        return "status " + std::to_string(resp.status);
    try {
        Reader in(resp.payload);
        if (type == MsgType::Update) {
            in.u32();
            in.u64();
        } else {
            in.u64();
            const std::uint32_t count = in.u32();
            for (std::uint32_t i = 0; i < count; ++i) {
                if (type == MsgType::TopK) {
                    const std::uint32_t ranked = in.u32();
                    for (std::uint32_t j = 0; j < ranked; ++j) {
                        in.u64();
                        in.u64();
                    }
                } else {
                    in.u64();
                    in.u64();
                    in.str();
                }
            }
        }
        if (in.left() != 0)
            return std::to_string(in.left()) + " trailing bytes";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ServerTest, EveryTruncatedOrMutatedRequestGetsAnAnswer)
{
    // Every strict prefix of one valid payload per request type, and
    // 200 seeded single-byte mutations of it, must be answered -- an
    // error response or a well-formed reply, never a dropped
    // connection or a crash -- and the same connection must still
    // answer Ping afterwards.
    ServerFixture fx({}, "sweep");
    RawConnection conn(fx.socketPath);
    const std::vector<Hypervector> queries = fixtureQueries(2);

    std::vector<std::pair<MsgType, std::vector<std::uint8_t>>> valid;
    {
        Writer w;
        w.u32(2);
        w.str("the quick brown fox jumps over the lazy dog");
        w.str("pack my box with five dozen liquor jugs");
        valid.emplace_back(MsgType::Classify, w.take());
    }
    {
        Writer w;
        w.u32(2);
        for (const Hypervector &q : queries)
            w.words(q.data(), q.words());
        valid.emplace_back(MsgType::Search, w.take());
    }
    {
        Writer w;
        w.u32(3);
        w.u32(2);
        for (const Hypervector &q : queries)
            w.words(q.data(), q.words());
        valid.emplace_back(MsgType::TopK, w.take());
    }
    {
        Writer w;
        w.u8(hdham::serve::kLabeled);
        w.u32(0);
        w.u32(2);
        w.str("sweep");
        w.str("sphinx of black quartz judge my vow");
        w.str("label3");
        w.str("how vexingly quick daft zebras jump");
        valid.emplace_back(MsgType::Update, w.take());
    }

    Rng rng(0x73776565ULL);
    for (const auto &[type, payload] : valid) {
        std::vector<std::vector<std::uint8_t>> cases;
        for (std::size_t len = 0; len < payload.size(); ++len)
            cases.emplace_back(payload.begin(),
                               payload.begin() +
                                   static_cast<long>(len));
        for (int m = 0; m < 200; ++m) {
            std::vector<std::uint8_t> mutated = payload;
            mutated[rng.nextBelow(mutated.size())] ^=
                static_cast<std::uint8_t>(1 + rng.nextBelow(255));
            cases.push_back(std::move(mutated));
        }
        for (std::size_t c = 0; c < cases.size(); ++c) {
            const std::string where =
                "type " + std::to_string(static_cast<int>(type)) +
                " case " + std::to_string(c);
            Response resp;
            ASSERT_TRUE(conn.call(type, cases[c], resp))
                << where << ": connection dropped";
            ASSERT_EQ(malformedReply(type, resp), "") << where;
            Response pong;
            ASSERT_TRUE(conn.call(MsgType::Ping, {}, pong))
                << where << ": connection dropped before Ping";
            ASSERT_EQ(pong.status, hdham::serve::kOk) << where;
        }
    }
}

} // namespace
