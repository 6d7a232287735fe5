/**
 * @file
 * perfbench: the end-to-end benchmark of the hdham.serve.v1 server.
 *
 *   perfbench --server PATH --work-dir DIR --workload NAME|all
 *             [--seed N] [--seconds S] [--trace 0|1] [--scale tiny]
 *             [--corrupt-reply]
 *
 * Prints each metric as `name value unit`, a `host` line, and last a
 * JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1
 * when any answer is wrong. --scale tiny shrinks every workload for
 * the self-test; --corrupt-reply damages one reply before it is
 * checked, which must fail the run.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"

namespace
{

using namespace perfbench;

std::string
firstLine(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0) {
            const std::size_t colon = line.find(':');
            std::size_t b = colon == std::string::npos ? 0 : colon + 1;
            while (b < line.size() && line[b] == ' ')
                ++b;
            return line.substr(b);
        }
    }
    return "unknown";
}

/** JSON string literal (the values printed here are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printReport(const Workload &w, const Report &rep, bool trace)
{
    for (const std::string &note : rep.notes)
        std::printf("# %s: %s\n", w.name.c_str(), note.c_str());
    for (const Metric &m : rep.metrics)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    std::printf(
        "host {\"workload\": %s, \"trace\": %d, \"nproc\": %ld, "
        "\"cpu\": %s, \"l3\": %s, \"kernel\": %s, \"build\": %s}\n",
        quoted(w.name).c_str(), trace ? 1 : 0, nproc,
        quoted(firstLine("/proc/cpuinfo", "model name")).c_str(),
        quoted(firstLine("/sys/devices/system/cpu/cpu0/cache/index3/size",
                         ""))
            .c_str(),
        quoted(rep.kernel).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str());
    std::string metrics;
    for (const Metric &m : rep.metrics) {
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + m.name +
                                     " is not finite");
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        if (!metrics.empty())
            metrics += ", ";
        metrics += quoted(m.name) + ": {\"value\": " + value +
                   ", \"unit\": " + quoted(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --server PATH --work-dir DIR "
                 "--workload NAME|all [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale tiny] [--corrupt-reply]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string workload;
    bool trace = false;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--corrupt-reply") {
            opt.corruptReply = true;
        } else if (!hasValue) {
            return usage();
        } else if (a == "--server") {
            opt.serverBinary = argv[++i];
        } else if (a == "--work-dir") {
            opt.workDir = argv[++i];
        } else if (a == "--workload") {
            workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            trace = std::string(argv[++i]) == "1";
        } else if (a == "--scale") {
            tiny = std::string(argv[++i]) == "tiny";
        } else {
            return usage();
        }
    }
    if (opt.serverBinary.empty() || opt.workDir.empty() ||
        workload.empty() || !(opt.seconds > 0.0))
        return usage();

    const std::vector<std::string> names =
        workload == "all" ? workloadNames()
                          : std::vector<std::string>{workload};
    bool allCorrect = true;
    try {
        for (const std::string &name : names) {
            const Workload w = workloadByName(name, tiny);
            const Inputs in = makeInputs(w, opt.seed, opt.workDir);
            const Report rep = trace ? runTraced(w, in, opt)
                                     : runEndToEnd(w, in, opt);
            printReport(w, rep, trace);
            allCorrect = allCorrect && rep.correct;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return allCorrect ? 0 : 1;
}
