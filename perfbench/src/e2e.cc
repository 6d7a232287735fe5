/**
 * @file
 * The end-to-end run: time server set-up, then drive the server as a
 * closed loop (each connection sends its next request only when the
 * previous reply is back) for the run length, checking every reply.
 */

#include <unistd.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hh"

namespace perfbench
{

using hdham::serve::Client;

namespace
{

/** What one connection saw. */
struct ConnStats
{
    std::vector<double> latencyUs;
    /** Texts or query vectors answered inside the run window. */
    std::uint64_t items = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;
    std::uint64_t truthHits = 0;
    std::uint64_t checkedItems = 0;
    std::string firstWrong;
    double lastDone = 0.0;
    /** Writer: Update sent -> Swap reply with the new sequence. */
    std::vector<double> visibleMs;
};

void
noteWrong(ConnStats &st, const std::string &why)
{
    ++st.wrong;
    if (st.firstWrong.empty())
        st.firstWrong = why;
}

/** Send one read request and check the reply. */
void
readOnce(const Workload &w, const Inputs &in, const ReadRequest &req,
         Client &client, std::atomic<bool> &corrupt,
         std::uint64_t &lastSeq, ConnStats &st)
{
    Verdict v;
    std::uint64_t seq = 0;
    if (w.kind == Kind::TopK) {
        hdham::serve::TopKReply reply = client.topK(w.k, req.queries);
        if (corrupt.exchange(false) && !reply.results[0].empty())
            reply.results[0].pop_back();
        v = checkTopK(req, w.k, in.updatedRows, reply);
        seq = reply.sequence;
    } else {
        hdham::serve::QueryReply reply =
            w.kind == Kind::Classify ? client.classify(req.texts)
                                     : client.search(req.queries);
        if (corrupt.exchange(false) && !reply.results.empty())
            reply.results[0].distance ^= 1;
        v = checkQuery(req, reply);
        seq = reply.sequence;
    }
    if (!v.exact)
        noteWrong(st, v.why);
    if (seq < lastSeq)
        noteWrong(st, "snapshot sequence went back from " +
                          std::to_string(lastSeq) + " to " +
                          std::to_string(seq));
    lastSeq = seq;
    st.truthHits += v.truthHits;
    st.checkedItems += v.items;
}

/** Closed-loop reader until @p deadline. */
void
readerLoop(const Workload &w, const Inputs &in, std::size_t r,
           const std::string &sock, Client client, double deadline,
           std::atomic<bool> &corrupt, ConnStats &st)
{
    const std::vector<ReadRequest> &stream = in.reads[r];
    std::uint64_t lastSeq = 0;
    for (std::size_t i = 0;; ++i) {
        const double t0 = nowSeconds();
        if (t0 >= deadline)
            break;
        const ReadRequest &req = stream[i % stream.size()];
        ++st.attempted;
        try {
            readOnce(w, in, req, client, corrupt, lastSeq, st);
            const double t1 = nowSeconds();
            st.latencyUs.push_back((t1 - t0) * 1e6);
            st.items += w.batch;
            st.lastDone = t1;
        } catch (const std::exception &) {
            ++st.failed;
            try {
                client = Client::connectUnix(sock);
            } catch (const std::exception &) {
                return;
            }
        }
    }
}

/** One Update + Swap, timed until the new snapshot is published. */
void
updateOnce(const UpdateRequest &req, Client &client,
           std::uint64_t &lastSeq, ConnStats &st)
{
    ++st.attempted;
    const double t0 = nowSeconds();
    const hdham::serve::UpdateReply up =
        client.update(hdham::serve::kLabeled, req.samples);
    const hdham::serve::SwapReply sw = client.swap();
    const double t1 = nowSeconds();
    st.visibleMs.push_back((t1 - t0) * 1e3);
    if (up.applied != req.samples.size())
        noteWrong(st, "update applied " + std::to_string(up.applied) +
                          " of " + std::to_string(req.samples.size()));
    if (sw.sequence <= lastSeq)
        noteWrong(st, "swap did not publish a newer snapshot");
    lastSeq = sw.sequence;
}

/** Update + Swap loop until @p deadline. */
void
writerLoop(const Inputs &in, const std::string &sock, double deadline,
           ConnStats &st)
{
    try {
        Client client = Client::connectUnix(sock);
        std::uint64_t lastSeq = client.ping().sequence;
        for (std::size_t i = 0; nowSeconds() < deadline; ++i)
            updateOnce(in.updates[i % in.updates.size()], client,
                       lastSeq, st);
    } catch (const std::exception &) {
        ++st.failed;
    }
}

} // namespace

Report
runEndToEnd(const Workload &w, const Inputs &in, const Options &opt)
{
    const std::string sock =
        opt.workDir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
    const std::string log = opt.workDir + "/server.log";

    // Set-up: launch to first answered Ping, several times; the last
    // launch serves the load.
    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    for (std::size_t i = 0; i < w.setupLaunches; ++i) {
        if (server)
            server->shutdown();
        server = std::make_unique<ServerProcess>(
            opt.serverBinary, in.modelPath, sock, log);
        setups.push_back(server->waitReady(120.0));
    }

    // Connect every reader and warm each connection (faults the
    // mapped rows in) before the clock starts.
    std::atomic<bool> corrupt{opt.corruptReply};
    std::vector<ConnStats> stats(w.readers + 1);
    std::vector<Client> clients;
    for (std::size_t r = 0; r < w.readers; ++r) {
        clients.push_back(Client::connectUnix(sock));
        std::uint64_t seq = 0;
        for (std::size_t i = 0; i < std::min<std::size_t>(
                                        4, in.reads[r].size());
             ++i)
            readOnce(w, in, in.reads[r][i], clients.back(), corrupt,
                     seq, stats[r]);
    }
    for (ConnStats &st : stats) {
        st.truthHits = 0;
        st.checkedItems = 0;
    }

    const double start = nowSeconds();
    const double deadline = start + opt.seconds;
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < w.readers; ++r)
        threads.emplace_back([&, r] {
            readerLoop(w, in, r, sock, std::move(clients[r]), deadline,
                       corrupt, stats[r]);
        });
    ConnStats &wr = stats[w.readers];
    if (w.writer)
        threads.emplace_back(
            [&] { writerLoop(in, sock, deadline, wr); });
    for (std::thread &t : threads)
        t.join();

    Client admin = Client::connectUnix(sock);
    if (!w.writer) {
        // No writer in the mix: time update visibility on the idle
        // server after the read phase.
        std::uint64_t seq = admin.ping().sequence;
        for (const UpdateRequest &req : in.updates) {
            try {
                updateOnce(req, admin, seq, wr);
            } catch (const std::exception &) {
                ++wr.failed;
                admin = Client::connectUnix(sock);
            }
        }
    }

    Report rep;
    rep.kernel = serverKernel(admin);
    const double rssMb = server->peakRssMb();
    server->shutdown();

    std::vector<double> latency;
    std::uint64_t items = 0, hits = 0, checked = 0, wrong = 0;
    double lastDone = start;
    for (const ConnStats &st : stats) {
        latency.insert(latency.end(), st.latencyUs.begin(),
                       st.latencyUs.end());
        items += st.items;
        hits += st.truthHits;
        checked += st.checkedItems;
        wrong += st.wrong;
        rep.attempted += st.attempted;
        rep.failed += st.failed;
        lastDone = std::max(lastDone, st.lastDone);
        if (!st.firstWrong.empty())
            rep.notes.push_back("wrong answer: " + st.firstWrong);
    }
    if (latency.empty() || wr.visibleMs.empty() || checked == 0)
        throw std::runtime_error("no request completed");
    rep.correct = wrong == 0;

    rep.metrics = {
        {"setup_s", median(setups), "s"},
        {"server_peak_rss_mb", rssMb, "MB"},
        {"qps", double(items) / (lastDone - start), "1/s"},
        {"read_p50_us", percentile(latency, 0.5), "us"},
        {"read_p95_us", percentile(latency, 0.95), "us"},
        {"update_visible_p50_ms", median(wr.visibleMs), "ms"},
        {"success_rate",
         1.0 - double(rep.failed) / double(rep.attempted), "ratio"},
        {"accuracy", double(hits) / double(checked), "ratio"},
    };
    // p99 is reported here only: under swaps it does not repeat
    // within a tenth between runs, p95 does.
    rep.notes.push_back(
        "read samples " + std::to_string(latency.size()) + " over " +
        std::to_string(w.readers) + " connections; p95 has " +
        std::to_string(latency.size() / 20) + " beyond it; p99 " +
        std::to_string(percentile(latency, 0.99)) + " us");
    rep.notes.push_back(
        "update samples " + std::to_string(wr.visibleMs.size()) +
        (w.writer ? " under read load" : " on the idle server"));
    rep.notes.push_back("setup launches " + std::to_string(setups.size()) +
                        ", fastest " + std::to_string(percentile(setups, 0)) +
                        " s, slowest " +
                        std::to_string(percentile(setups, 1)) + " s");
    return rep;
}

} // namespace perfbench
