/**
 * @file
 * The traced run: per-layer numbers from spans this file records
 * around public calls into each layer, so the program stays
 * untouched.
 *
 * With the server up it times Ping round trips, captures the request
 * and reply bytes of sampled read requests, times those requests one
 * at a time, and reads the server's scan counters. With the server
 * stopped it opens the same model in-process and replays the sampled
 * requests through the calls the server makes, in its order:
 * decode, pin, encoder, scan, reply encode, release. Replay passes
 * with span recording on and off alternate for the run length; their
 * difference is the tracing overhead.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "core/assoc_memory.hh"
#include "core/distance.hh"
#include "core/encoder.hh"
#include "core/item_memory.hh"
#include "core/json.hh"
#include "core/model_loader.hh"
#include "core/random.hh"
#include "core/snapshot.hh"
#include "lang/pipeline.hh"
#include "serve/protocol.hh"

namespace perfbench
{

using hdham::Hypervector;
using hdham::serve::Client;
using hdham::serve::MsgType;
using hdham::serve::Reader;
using hdham::serve::Writer;

namespace
{

/**
 * In-memory span recorder. A span has a name, the request it belongs
 * to (0 = outside any replayed request), the span that caused it,
 * and the number of texts or queries it covered.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        std::uint32_t request;
        int parent;
        std::size_t items;
        double start;
        double end;
    };

    /** RAII span; records nothing while the recorder is disabled. */
    class Scope
    {
      public:
        Scope(Spans &s, const char *name, std::size_t items = 1)
            : spans(s)
        {
            if (!spans.enabled)
                return;
            index = int(spans.all.size());
            spans.all.push_back({name, spans.request,
                                 spans.open.empty() ? -1
                                                    : spans.open.back(),
                                 items, nowSeconds(), 0.0});
            spans.open.push_back(index);
        }
        ~Scope()
        {
            if (index < 0)
                return;
            spans.all[std::size_t(index)].end = nowSeconds();
            spans.open.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans;
        int index = -1;
    };

    bool enabled = true;
    std::uint32_t request = 0;
    std::vector<Span> all;

    /** Durations (s) of every span named @p name, per item. */
    std::vector<double>
    perItem(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : all)
            if (std::strcmp(s.name, name) == 0)
                out.push_back((s.end - s.start) / double(s.items));
        return out;
    }

    /** Self time of every span: its duration minus its children's. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            self[i] += all[i].end - all[i].start;
            if (all[i].parent >= 0)
                self[std::size_t(all[i].parent)] -=
                    all[i].end - all[i].start;
        }
        return self;
    }

  private:
    std::vector<int> open;
};

/** Median in the given unit scale, of a non-empty sample. */
double
medianScaled(const std::vector<double> &v, double scale)
{
    return median(v) * scale;
}

/** Build the request payload the Client would send. */
std::vector<std::uint8_t>
encodeRequest(const Workload &w, const ReadRequest &req)
{
    Writer out;
    if (w.kind == Kind::TopK)
        out.u32(std::uint32_t(w.k));
    if (w.kind == Kind::Classify) {
        out.u32(std::uint32_t(req.texts.size()));
        for (const std::string &t : req.texts)
            out.str(t);
    } else {
        out.u32(std::uint32_t(req.queries.size()));
        for (const Hypervector &q : req.queries)
            out.words(q.data(), q.words());
    }
    return out.take();
}

MsgType
requestType(const Workload &w)
{
    return w.kind == Kind::Classify ? MsgType::Classify
           : w.kind == Kind::Search ? MsgType::Search
                                    : MsgType::TopK;
}

/** Connect a raw socket, for capturing exact wire bytes. */
int
connectRaw(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        if (fd >= 0)
            ::close(fd);
        throw std::runtime_error("cannot connect to " + path);
    }
    return fd;
}

/** One replayed request's captured wire bytes. */
struct Capture
{
    const ReadRequest *req = nullptr;
    std::vector<std::uint8_t> request;
    std::vector<std::uint8_t> reply;
};

/** A counter of the server's Stats document. */
double
counter(const std::string &statsJson, const std::string &name)
{
    return hdham::json::parse(statsJson)
        .at("counters")
        .at(name)
        .asNumber();
}

/** Resident set of this process, in MiB. */
double
rssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmRSS for this process");
}

/** What the replay needs from the in-process model. */
struct Replayer
{
    const Workload &w;
    hdham::snapshot::SnapshotSource &source;
    const hdham::ItemMemory &items;
    Spans &spans;

    /**
     * Replay one captured request through the layers in the order
     * the server calls them; returns the reply bytes it produced.
     */
    std::vector<std::uint8_t>
    replay(const Capture &cap)
    {
        Spans::Scope root(spans, "request");
        {
            Spans::Scope s(spans, "protocol.encode_request");
            (void)encodeRequest(w, *cap.req);
        }
        std::vector<std::string> texts;
        std::vector<Hypervector> queries;
        std::uint32_t k = 0;
        hdham::snapshot::SnapshotRef pin;
        {
            Spans::Scope s(spans, "protocol.decode_request");
            Reader in(cap.request);
            if (w.kind == Kind::TopK)
                k = in.u32();
            const std::uint32_t n = in.u32();
            for (std::uint32_t i = 0; i < n; ++i) {
                if (w.kind == Kind::Classify) {
                    texts.push_back(in.str());
                } else {
                    const std::vector<std::uint64_t> words = in.words();
                    queries.push_back(
                        Hypervector::fromWords(w.dim, words.data()));
                }
            }
        }
        {
            Spans::Scope s(spans, "snapshot.acquire");
            pin = source.acquire();
        }
        const hdham::AssociativeMemory &am = pin->memory();
        if (w.kind == Kind::Classify) {
            std::optional<hdham::Encoder> encoder;
            {
                Spans::Scope s(spans, "encoder.ctor");
                encoder.emplace(items,
                                hdham::lang::PipelineConfig{}.ngram);
            }
            hdham::Rng rng(classifyEncodeSeed());
            for (const std::string &t : texts) {
                Spans::Scope s(spans, "encoder.encode");
                queries.push_back(encoder->encode(t, rng));
            }
        }
        Writer out;
        out.u64(pin->sequence());
        out.u32(std::uint32_t(queries.size()));
        if (w.kind == Kind::TopK) {
            std::vector<std::vector<hdham::RankedMatch>> ranked;
            for (const Hypervector &q : queries) {
                Spans::Scope s(spans, "scan.topk");
                ranked.push_back(am.searchTopK(q, k));
            }
            Spans::Scope s(spans, "protocol.encode_reply");
            for (const auto &r : ranked) {
                out.u32(std::uint32_t(r.size()));
                for (const hdham::RankedMatch &m : r) {
                    out.u64(m.classId);
                    out.u64(m.distance);
                }
            }
        } else {
            std::vector<hdham::SearchResult> results;
            {
                Spans::Scope s(spans, "scan.search", queries.size());
                results = am.searchBatch(queries, 1);
            }
            Spans::Scope s(spans, "protocol.encode_reply");
            for (const hdham::SearchResult &r : results) {
                out.u64(r.classId);
                out.u64(r.bestDistance);
                out.str(am.labelOf(r.classId));
            }
        }
        std::vector<std::uint8_t> reply = out.take();
        {
            Spans::Scope s(spans, "snapshot.release");
            pin.reset();
        }
        {
            Spans::Scope s(spans, "protocol.decode_reply");
            Reader in(cap.reply);
            in.u64();
            const std::uint32_t n = in.u32();
            for (std::uint32_t i = 0; i < n; ++i) {
                if (w.kind == Kind::TopK) {
                    const std::uint32_t m = in.u32();
                    for (std::uint32_t j = 0; j < m; ++j) {
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
        return reply;
    }
};

/** The sampled read requests of the traced run. */
std::vector<const ReadRequest *>
sampleRequests(const Workload &w, const Inputs &in)
{
    std::vector<const ReadRequest *> out;
    for (std::size_t i = 0; out.size() < w.replayRequests; ++i) {
        const std::vector<ReadRequest> &stream =
            in.reads[i % in.reads.size()];
        out.push_back(&stream[(i / in.reads.size()) % stream.size()]);
    }
    return out;
}

} // namespace

Report
runTraced(const Workload &w, const Inputs &in, const Options &opt)
{
    Report rep;
    Spans spans;
    std::uint64_t wrong = 0;
    const std::vector<const ReadRequest *> sample = sampleRequests(w, in);
    std::size_t sampleItems = 0;
    for (const ReadRequest *r : sample)
        sampleItems += r->expect.size();

    // --- Server up: socket round trips, captures, counters. ---------
    std::vector<Capture> captures;
    std::vector<double> readUs;
    double scanned = 0.0, pruned = 0.0;
    {
        const std::string sock = opt.workDir + "/perfbench-" +
                                  std::to_string(::getpid()) + ".sock";
        ServerProcess server(opt.serverBinary, in.modelPath, sock,
                             opt.workDir + "/server.log");
        server.waitReady(120.0);
        Client client = Client::connectUnix(sock);
        rep.kernel = serverKernel(client);

        const int fd = connectRaw(sock);
        for (const ReadRequest *req : sample) {
            Capture cap;
            cap.req = req;
            cap.request = encodeRequest(w, *req);
            hdham::serve::writeRequest(fd, requestType(w), cap.request);
            hdham::serve::Response resp;
            ++rep.attempted;
            if (!hdham::serve::readResponse(fd, resp) ||
                resp.status != hdham::serve::kOk) {
                ++rep.failed;
                continue;
            }
            cap.reply = std::move(resp.payload);
            captures.push_back(std::move(cap));
        }
        ::close(fd);

        for (int i = 0; i < 2000; ++i) {
            Spans::Scope s(spans, "serve.ping");
            client.ping();
        }

        // Uncontended latency of the sampled requests, one at a time,
        // checked like the end-to-end run checks them.
        const std::string before = client.stats();
        const std::size_t passes =
            std::max<std::size_t>(1, 64 / sample.size());
        for (std::size_t p = 0; p < passes; ++p) {
            for (const ReadRequest *req : sample) {
                ++rep.attempted;
                const double t0 = nowSeconds();
                Verdict v;
                if (w.kind == Kind::TopK) {
                    const hdham::serve::TopKReply reply =
                        client.topK(w.k, req->queries);
                    readUs.push_back((nowSeconds() - t0) * 1e6);
                    v = checkTopK(*req, w.k, in.updatedRows, reply);
                } else {
                    const hdham::serve::QueryReply reply =
                        w.kind == Kind::Classify
                            ? client.classify(req->texts)
                            : client.search(req->queries);
                    readUs.push_back((nowSeconds() - t0) * 1e6);
                    v = checkQuery(*req, reply);
                }
                if (!v.exact) {
                    ++wrong;
                    rep.notes.push_back("wrong answer: " + v.why);
                }
            }
        }
        const std::string after = client.stats();
        const double sent = double(passes * sampleItems);
        scanned = (counter(after, "serve.rows_scanned") -
                   counter(before, "serve.rows_scanned"));
        pruned = (counter(after, "serve.rows_pruned") -
                  counter(before, "serve.rows_pruned"));
        rep.metrics.push_back(
            {"serve.rows_scanned_per_query", scanned / sent, "count"});
        server.shutdown();
    }

    // --- Server down: the same model in-process. --------------------
    std::optional<hdham::modelload::LoadedModel> model;
    for (int i = 0; i < 3; ++i) {
        model.reset();
        Spans::Scope s(spans, "model.open");
        model.emplace(hdham::modelload::LoadedModel::open(in.modelPath));
    }
    hdham::snapshot::SnapshotSource source;
    source.publish(std::move(*model).intoSnapshot());
    model.reset();
    const hdham::snapshot::SnapshotRef pin = source.acquire();
    const hdham::AssociativeMemory &am = pin->memory();

    // The encoder seeds the server would use: the model's own item
    // memory, else the library defaults (as Server::loadModel does).
    std::optional<hdham::ItemMemory> fallback;
    if (!pin->hasItemMemory())
        fallback.emplace(hdham::TextAlphabet::size, w.dim,
                         hdham::lang::PipelineConfig{}.seed);
    const hdham::ItemMemory &items =
        pin->hasItemMemory() ? pin->itemMemory() : *fallback;

    {
        const double rssBefore = rssMb();
        std::optional<hdham::snapshot::SnapshotBuilder> builder;
        {
            Spans::Scope s(spans, "snapshot.seed");
            builder.emplace(*pin);
        }
        rep.metrics.push_back(
            {"snapshot.seed_rss_mb", rssMb() - rssBefore, "MB"});
        hdham::snapshot::SnapshotSource published;
        for (int i = 0; i < (w.kind == Kind::Search ? 1 : 3); ++i) {
            Spans::Scope s(spans, "snapshot.publish");
            builder->publish(published);
        }
    }
    {
        const std::size_t n = 200000;
        Spans::Scope s(spans, "snapshot.acquire_release", n);
        for (std::size_t i = 0; i < n; ++i)
            (void)source.acquire();
    }

    // Replay passes, span recording on and off in turn.
    Replayer replayer{w, source, items, spans};
    std::vector<double> onPass, offPass;
    std::uint32_t replayed = 0;
    const double until = nowSeconds() + opt.seconds;
    while (onPass.size() < 2 || offPass.size() < 2 ||
           nowSeconds() < until) {
        const bool on = onPass.size() <= offPass.size();
        spans.enabled = on;
        const double t0 = nowSeconds();
        for (const Capture &cap : captures) {
            spans.request = on ? ++replayed : 0;
            if (replayer.replay(cap) != cap.reply) {
                ++wrong;
                rep.notes.push_back("replayed reply differs from the "
                                    "server's bytes");
            }
        }
        (on ? onPass : offPass).push_back(nowSeconds() - t0);
    }
    spans.enabled = true;
    spans.request = 0;

    // Layers the workload's requests do not reach, timed on its own
    // inputs so every layer has a figure on every workload.
    std::vector<Hypervector> queries;
    if (w.kind == Kind::Classify) {
        const hdham::Encoder encoder(items,
                                     hdham::lang::PipelineConfig{}.ngram);
        for (const ReadRequest *r : sample) {
            hdham::Rng rng(classifyEncodeSeed());
            for (const std::string &t : r->texts)
                queries.push_back(encoder.encode(t, rng));
        }
    } else {
        for (const ReadRequest *r : sample)
            queries.insert(queries.end(), r->queries.begin(),
                           r->queries.end());
        // The encoder as the Update path uses it: one per request.
        for (const UpdateRequest &u : in.updates) {
            std::optional<hdham::Encoder> encoder;
            {
                Spans::Scope s(spans, "encoder.ctor");
                encoder.emplace(items,
                                hdham::lang::PipelineConfig{}.ngram);
            }
            hdham::Rng rng(1);
            for (const auto &labeled : u.samples) {
                Spans::Scope s(spans, "encoder.encode");
                (void)encoder->encode(labeled.second, rng);
            }
        }
    }
    if (w.kind == Kind::TopK) {
        for (const ReadRequest *r : sample) {
            Spans::Scope s(spans, "scan.search", r->queries.size());
            (void)am.searchBatch(r->queries, 1);
        }
    } else {
        for (const Hypervector &q : queries) {
            Spans::Scope s(spans, "scan.topk");
            (void)am.searchTopK(q, 5);
        }
    }

    // Kernel alone: one exact distance per row, no bookkeeping.
    const hdham::ShardView view = am.storage().shardView(0);
    if (am.storage().shardCount() != 1 || view.sliceBits != 0)
        throw std::runtime_error("kernel sweep needs a row-major, "
                                 "single-shard model");
    std::size_t sink = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(8, queries.size());
         ++i) {
        Spans::Scope s(spans, "kernel.sweep", view.rows);
        for (std::size_t r = 0; r < view.rows; ++r)
            sink += hdham::distance::hamming(
                view.head + r * view.headStride, queries[i].data(), w.dim);
    }

    // Single-thread streaming read bandwidth (the scan's roofline).
    std::vector<std::uint64_t> buffer(w.streamBytes / 8);
    for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = i;
    for (int pass = 0; pass < 5; ++pass) {
        Spans::Scope s(spans, "host.stream", buffer.size() * 8);
        std::uint64_t a = 0, b = 0, c = 0, d = 0;
        for (std::size_t i = 0; i + 4 <= buffer.size(); i += 4) {
            a += buffer[i];
            b += buffer[i + 1];
            c += buffer[i + 2];
            d += buffer[i + 3];
        }
        sink += a ^ b ^ c ^ d;
    }
    // Printing the sums keeps both loops from being optimized away.
    rep.notes.push_back("sweep checksum " + std::to_string(sink));

    // --- Metrics. ----------------------------------------------------
    const double pingUs = medianScaled(spans.perItem("serve.ping"), 1e6);
    const double searchUs =
        medianScaled(spans.perItem("scan.search"), 1e6);
    const double kernelNs =
        medianScaled(spans.perItem("kernel.sweep"), 1e9);
    const double rows = double(am.size());
    const double bytesPerQuery =
        rows * double(am.storage().wordsPerRow()) * 8.0;
    const double readP50 = median(readUs);

    // Per replayed request: codec total and the layers' self-time sum.
    const std::vector<double> self = spans.selfTimes();
    std::map<std::uint32_t, double> codec, layers;
    for (std::size_t i = 0; i < spans.all.size(); ++i) {
        const Spans::Span &s = spans.all[i];
        if (s.request == 0 || s.parent < 0)
            continue;
        layers[s.request] += self[i];
        if (std::strncmp(s.name, "protocol.", 9) == 0)
            codec[s.request] += s.end - s.start;
    }
    std::vector<double> codecUs, coverage;
    for (const auto &[id, secs] : codec)
        codecUs.push_back(secs * 1e6);
    for (const auto &[id, secs] : layers)
        coverage.push_back((secs * 1e6 + pingUs) / readP50);

    const std::vector<Metric> layerMetrics = {
        {"serve.ping_rtt_us", pingUs, "us"},
        {"protocol.codec_us", median(codecUs), "us"},
        {"model.open_ms", medianScaled(spans.perItem("model.open"), 1e3),
         "ms"},
        {"snapshot.seed_ms",
         medianScaled(spans.perItem("snapshot.seed"), 1e3), "ms"},
        {"snapshot.acquire_ns",
         medianScaled(spans.perItem("snapshot.acquire_release"), 1e9),
         "ns"},
        {"snapshot.publish_ms",
         medianScaled(spans.perItem("snapshot.publish"), 1e3), "ms"},
        {"encoder.ctor_us",
         medianScaled(spans.perItem("encoder.ctor"), 1e6), "us"},
        {"encoder.encode_us",
         medianScaled(spans.perItem("encoder.encode"), 1e6), "us"},
        {"scan.search_us_per_query", searchUs, "us"},
        {"scan.topk_us_per_query",
         medianScaled(spans.perItem("scan.topk"), 1e6), "us"},
        {"scan.overhead_ns_per_row", searchUs * 1e3 / rows - kernelNs,
         "ns"},
        {"kernel.ns_per_row", kernelNs, "ns"},
        {"kernel.bytes_per_query", bytesPerQuery, "B"},
        {"scan.achieved_gbps", bytesPerQuery / (searchUs * 1e3), "GB/s"},
        {"host.stream_read_gbps",
         1.0 / medianScaled(spans.perItem("host.stream"), 1e9), "GB/s"},
        {"serve.rows_pruned_ratio", scanned > 0 ? pruned / scanned : 0.0,
         "ratio"},
        {"layers.read_p50_us", readP50, "us"},
        {"layers.coverage", median(coverage), "ratio"},
        {"trace.overhead_ratio",
         median(onPass) / median(offPass) - 1.0, "ratio"},
    };
    rep.metrics.insert(rep.metrics.end(), layerMetrics.begin(),
                       layerMetrics.end());
    rep.correct = wrong == 0;
    rep.notes.push_back("replayed " + std::to_string(captures.size()) +
                        " requests x " + std::to_string(onPass.size()) +
                        " traced passes; " +
                        std::to_string(readUs.size()) +
                        " uncontended socket reads");
    return rep;
}

} // namespace perfbench
