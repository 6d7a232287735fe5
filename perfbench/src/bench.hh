/**
 * @file
 * Shared declarations of the perfbench binary: workload shapes, the
 * seeded inputs and their oracle answers, the server subprocess, the
 * answer checker and the metric report.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hypervector.hh"
#include "serve/client.hh"

namespace perfbench
{

/** What a reader connection sends. */
enum class Kind
{
    Classify,
    Search,
    TopK,
};

/** Shape of one workload (sizes, traffic mix, run structure). */
struct Workload
{
    std::string name;
    Kind kind = Kind::Classify;
    /** Hypervector dimension of the served model. */
    std::size_t dim = 0;
    /** Rows of a generated model (Search/TopK). */
    std::size_t rows = 0;
    /** Search: clusters the rows are drawn around. */
    std::size_t prototypes = 0;
    /** Search: share of bits flipped from the prototype. */
    double rowFlip = 0.0;
    double queryFlip = 0.0;
    /** Texts or query vectors per read request. */
    std::size_t batch = 1;
    /** TopK: results per query. */
    std::size_t k = 0;
    std::size_t readers = 0;
    /** One writer connection looping Update + Swap during the load. */
    bool writer = false;
    /** Sentences per Update request. */
    std::size_t updateSamples = 8;
    /** Distinct read requests per reader, cycled. */
    std::size_t readPool = 0;
    /** Distinct Update requests, cycled. */
    std::size_t updatePool = 0;
    /** Classify model: corpus training characters per language. */
    std::size_t trainChars = 0;
    /** Classify model: test sentences per language. */
    std::size_t testSentences = 0;
    /** Server launches timed for setup_s (the last one serves). */
    std::size_t setupLaunches = 5;
    /** Update + Swap probes on an idle server (no writer). */
    std::size_t idleProbes = 0;
    /** Traced run: read requests replayed per pass. */
    std::size_t replayRequests = 0;
    /** Traced run: bytes streamed for the bandwidth probe. */
    std::size_t streamBytes = 0;
};

/** The workload @p name at full or tiny (self-test) size. */
Workload workloadByName(const std::string &name, bool tiny);

/** Names of every workload, in run order. */
std::vector<std::string> workloadNames();

/**
 * Seed of the encode tie-break stream of `hdham classify`, which the
 * server's Classify path reproduces bit for bit (one stream per
 * request).
 */
std::uint64_t classifyEncodeSeed();

/** One result the oracle expects for one text or query. */
struct Expected
{
    std::uint64_t classId = 0;
    std::uint64_t distance = 0;
    std::string label;
    /** TopK: the oracle ranking over rows no update touches. */
    std::vector<hdham::serve::RankedReply> ranked;
};

/** One read request with its ground truth and oracle answers. */
struct ReadRequest
{
    std::vector<std::string> texts;
    std::vector<hdham::Hypervector> queries;
    /** Per item: label of the true language or source cluster. */
    std::vector<std::string> truth;
    std::vector<Expected> expect;
};

/** One Update request ({label, text} samples). */
struct UpdateRequest
{
    std::vector<std::pair<std::string, std::string>> samples;
};

/** Everything one run sends, generated from the seed. */
struct Inputs
{
    std::string modelPath;
    /** reads[r] is reader r's request stream. */
    std::vector<std::vector<ReadRequest>> reads;
    std::vector<UpdateRequest> updates;
    /** TopK: rows any Update may change (excluded by the oracle). */
    std::set<std::uint64_t> updatedRows;
};

/**
 * Generate (or reuse from the cache under @p workDir) the workload's
 * model file, then draw the request streams from @p seed and compute
 * their oracle answers in-process on the same model file.
 */
Inputs makeInputs(const Workload &w, std::uint64_t seed,
                  const std::string &workDir);

/** Outcome of checking one reply. */
struct Verdict
{
    /** The reply equals the oracle's answer. */
    bool exact = true;
    /** Items answered with their ground-truth label. */
    std::size_t truthHits = 0;
    std::size_t items = 0;
    std::string why;
};

/** Check a Classify/Search reply against its request's oracle. */
Verdict checkQuery(const ReadRequest &req,
                   const hdham::serve::QueryReply &reply);

/**
 * Check a TopK reply: ascending (distance, class) order, and the
 * entries of rows no update touches equal the oracle ranking's head.
 */
Verdict checkTopK(const ReadRequest &req, std::size_t k,
                  const std::set<std::uint64_t> &updatedRows,
                  const hdham::serve::TopKReply &reply);

/** A running hdham_server child process on a unix socket. */
class ServerProcess
{
  public:
    /** Spawn @p binary over @p model; output goes to @p logPath. */
    ServerProcess(const std::string &binary, const std::string &model,
                  const std::string &socketPath,
                  const std::string &logPath);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /**
     * Poll with Ping until the server answers; returns the seconds
     * since the spawn. @throws std::runtime_error if the child exits
     * first or does not answer within @p timeoutS.
     */
    double waitReady(double timeoutS);

    /** Peak resident set (VmHWM) of the child, in MiB. */
    double peakRssMb() const;

    /** Send Shutdown and reap the child (kills it if it hangs). */
    void shutdown();

  private:
    void reap(bool kill);

    std::string sock;
    pid_t pid = -1;
    double spawnedAt = 0.0;
};

/** Seconds on the steady clock. */
double nowSeconds();

/** Linear-interpolated percentile (@p q in [0, 1]) of @p values. */
double percentile(std::vector<double> values, double q);

/** Median of @p values. */
double median(std::vector<double> values);

/** One named metric of a run. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run prints. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Kernel the server reports in Stats info.kernel. */
    std::string kernel;
    /** Extra lines printed before the metrics (sample counts...). */
    std::vector<std::string> notes;
};

/** Run-wide options. */
struct Options
{
    std::string serverBinary;
    std::string workDir;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Test hook: corrupt the first checked reply. */
    bool corruptReply = false;
};

/** The closed-loop end-to-end run (tracing off). */
Report runEndToEnd(const Workload &w, const Inputs &in,
                   const Options &opt);

/** The traced per-layer run. */
Report runTraced(const Workload &w, const Inputs &in,
                 const Options &opt);

/** Fetch Stats over @p client and return its info.kernel. */
std::string serverKernel(hdham::serve::Client &client);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
