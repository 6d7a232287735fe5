/**
 * @file
 * The hdham_server child process, plus the small timing helpers.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "core/json.hh"

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::logic_error("percentile of no samples");
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

ServerProcess::ServerProcess(const std::string &binary,
                             const std::string &model,
                             const std::string &socketPath,
                             const std::string &logPath)
    : sock(socketPath)
{
    ::unlink(sock.c_str());
    const int logFd = ::open(logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                             0644);
    if (logFd < 0)
        throw std::runtime_error("cannot open " + logPath);
    std::vector<std::string> args = {binary, "--model", model,
                                     "--socket", sock};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    spawnedAt = nowSeconds();
    // vfork keeps the spawn cost out of setup_s (a fork copies this
    // process's page tables); the child only makes system calls.
    pid = ::vfork();
    if (pid == 0) {
        // The server dies with this process, even when it is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(logFd, STDOUT_FILENO);
        ::dup2(logFd, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(logFd);
    if (pid < 0)
        throw std::runtime_error("cannot start " + binary);
}

ServerProcess::~ServerProcess()
{
    if (pid > 0)
        reap(true);
}

double
ServerProcess::waitReady(double timeoutS)
{
    for (;;) {
        try {
            hdham::serve::Client client =
                hdham::serve::Client::connectUnix(sock);
            client.ping();
            return nowSeconds() - spawnedAt;
        } catch (const std::exception &) {
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            throw std::runtime_error("hdham_server exited during "
                                     "start-up (see its log)");
        }
        if (nowSeconds() - spawnedAt > timeoutS)
            throw std::runtime_error("hdham_server did not answer "
                                     "Ping in time");
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
}

double
ServerProcess::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM for the server process");
}

void
ServerProcess::shutdown()
{
    try {
        hdham::serve::Client::connectUnix(sock).shutdownServer();
    } catch (const std::exception &) {
        // Reaped (and killed if need be) below.
    }
    reap(false);
}

void
ServerProcess::reap(bool kill)
{
    if (kill)
        ::kill(pid, SIGKILL);
    const double deadline = nowSeconds() + 30.0;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (nowSeconds() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    pid = -1;
    ::unlink(sock.c_str());
}

std::string
serverKernel(hdham::serve::Client &client)
{
    const hdham::json::Value stats = hdham::json::parse(client.stats());
    return stats.at("info").at("kernel").asString();
}

} // namespace perfbench
