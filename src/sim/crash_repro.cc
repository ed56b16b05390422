#include "sim/crash_repro.hh"

#include <atomic>
#include <charconv>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/file_io.hh"

namespace mask {

std::string
reproPath(const std::string &run_name)
{
    const std::string dir = envString("MASK_REPRO_DIR", ".");
    ::mkdir(dir.c_str(), 0777); // best-effort; the writers report
    return dir + "/" + run_name + ".repro";
}

namespace {

/** Shortest text that reads back as exactly @p v. */
std::string
roundTrip(double v)
{
    char buf[32]; // ample for any double's shortest form
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

[[noreturn]] void
badValue(const std::string &path, const std::string &key,
         const std::string &value, const char *expected)
{
    throw std::runtime_error("repro file " + path + ": " + key + " '" +
                             value + "': expected " + expected);
}

} // namespace

std::string
formatRepro(const CrashRepro &repro)
{
    std::ostringstream out;
    out << "arch " << repro.arch << "\n";
    out << "design " << repro.design << "\n";
    for (const std::string &bench : repro.benches)
        out << "bench " << bench << "\n";
    out << "seed " << repro.seed << "\n";
    out << "warmup " << repro.warmup << "\n";
    out << "measure " << repro.measure << "\n";

    const WatchdogConfig &wd = repro.harden.watchdog;
    out << "watchdog.enabled " << (wd.enabled ? 1 : 0) << "\n";
    out << "watchdog.sweepInterval " << wd.sweepInterval << "\n";
    out << "watchdog.maxAge " << wd.maxAge << "\n";

    const FaultInjectConfig &f = repro.harden.fault;
    out << "fault.enabled " << (f.enabled ? 1 : 0) << "\n";
    out << "fault.seed " << f.seed << "\n";
    out << "fault.dramDelayProb " << roundTrip(f.dramDelayProb) << "\n";
    out << "fault.dramDelayCycles " << f.dramDelayCycles << "\n";
    out << "fault.walkDropProb " << roundTrip(f.walkDropProb) << "\n";
    out << "fault.walkDropRetry " << (f.walkDropRetry ? 1 : 0) << "\n";
    out << "fault.walkRetryDelay " << f.walkRetryDelay << "\n";
    out << "fault.shootdownInterval " << f.shootdownInterval << "\n";
    out << "fault.portStallProb " << roundTrip(f.portStallProb) << "\n";
    out << "fault.portStallCycles " << f.portStallCycles << "\n";

    if (repro.fingerprint != 0) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, repro.fingerprint);
        out << "fingerprint " << hex << "\n";
    }

    out << "failCycle " << repro.failCycle << "\n";
    out << "module " << repro.module << "\n";
    out << "detail " << repro.detail << "\n";
    return out.str();
}

void
writeRepro(const std::string &path, const CrashRepro &repro)
{
    writeFileAtomic(path, formatRepro(repro));
}

CrashRepro
loadRepro(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read repro file: " + path);

    CrashRepro repro;
    repro.benches.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream row(line);
        std::string key;
        row >> key;
        std::string rest;
        std::getline(row, rest);
        if (!rest.empty() && rest.front() == ' ')
            rest.erase(rest.begin());

        const auto u64 = [&] {
            std::uint64_t n = 0;
            if (!parseU64(rest, n))
                badValue(path, key, rest,
                         "an unsigned decimal integer below 2^64");
            return n;
        };
        const auto flag = [&] {
            if (rest != "0" && rest != "1")
                badValue(path, key, rest, "0 or 1");
            return rest == "1";
        };
        const auto real = [&] {
            double d = 0.0;
            const char *end = rest.data() + rest.size();
            const auto [ptr, ec] = std::from_chars(rest.data(), end, d);
            if (ec != std::errc() || ptr != end)
                badValue(path, key, rest, "a decimal number");
            return d;
        };

        WatchdogConfig &wd = repro.harden.watchdog;
        FaultInjectConfig &f = repro.harden.fault;
        if (key == "arch")
            repro.arch = rest;
        else if (key == "design")
            repro.design = rest;
        else if (key == "bench")
            repro.benches.push_back(rest);
        else if (key == "seed")
            repro.seed = u64();
        else if (key == "warmup")
            repro.warmup = u64();
        else if (key == "measure")
            repro.measure = u64();
        else if (key == "watchdog.enabled")
            wd.enabled = flag();
        else if (key == "watchdog.sweepInterval")
            wd.sweepInterval = u64();
        else if (key == "watchdog.maxAge")
            wd.maxAge = u64();
        else if (key == "fault.enabled")
            f.enabled = flag();
        else if (key == "fault.seed")
            f.seed = u64();
        else if (key == "fault.dramDelayProb")
            f.dramDelayProb = real();
        else if (key == "fault.dramDelayCycles")
            f.dramDelayCycles = u64();
        else if (key == "fault.walkDropProb")
            f.walkDropProb = real();
        else if (key == "fault.walkDropRetry")
            f.walkDropRetry = flag();
        else if (key == "fault.walkRetryDelay")
            f.walkRetryDelay = u64();
        else if (key == "fault.shootdownInterval")
            f.shootdownInterval = u64();
        else if (key == "fault.portStallProb")
            f.portStallProb = real();
        else if (key == "fault.portStallCycles")
            f.portStallCycles = u64();
        else if (key == "fingerprint") {
            const char *end = rest.data() + rest.size();
            const auto [ptr, ec] = std::from_chars(
                rest.data(), end, repro.fingerprint, 16);
            if (rest.size() != 16 || ec != std::errc() || ptr != end)
                badValue(path, key, rest, "16 hex digits");
        } else if (key == "failCycle")
            repro.failCycle = u64();
        else if (key == "module")
            repro.module = rest;
        else if (key == "detail")
            repro.detail = rest;
        else
            throw std::runtime_error("repro file " + path +
                                     ": unknown key '" + key + "'");
    }
    if (repro.benches.empty())
        throw std::runtime_error("repro file " + path +
                                 ": no bench entries");
    return repro;
}

CrashRepro
makeRepro(const GpuConfig &arch, DesignPoint point,
          const std::vector<std::string> &benches, Cycle warmup,
          Cycle measure)
{
    CrashRepro repro;
    repro.arch = arch.name;
    repro.design = designPointName(point);
    repro.benches = benches;
    repro.seed = arch.seed;
    repro.warmup = warmup;
    repro.measure = measure;
    repro.harden = arch.harden;
    repro.fingerprint = configFingerprint(applyDesignPoint(arch, point));
    repro.module = "fatal-signal";
    repro.detail = "armed (no failure recorded)";
    return repro;
}

CrashRepro
makeRepro(const GpuConfig &arch, DesignPoint point,
          const std::vector<std::string> &benches, Cycle warmup,
          Cycle measure, const SimInvariantError &err)
{
    CrashRepro repro = makeRepro(arch, point, benches, warmup, measure);
    repro.failCycle = err.cycle();
    repro.module = err.module();
    repro.detail = err.detail();
    return repro;
}

// ---------------------------------------------------------------------
// Fatal-signal repro flushing
// ---------------------------------------------------------------------

namespace {

/**
 * Per-thread armed repro. The handler runs on the faulting thread, so
 * thread-local state picks the right record when several sweep
 * workers run concurrently. The content is pre-rendered at arm time;
 * the handler only open()s, write()s, and close()s — the
 * async-signal-safe subset.
 */
struct ArmedRepro
{
    std::string path;
    std::string content;
};

thread_local ArmedRepro tl_armed_repro;

/**
 * &tl_armed_repro while armed, else null. The handler reads only this
 * pointer on a thread that never armed: constant-initialized and
 * trivially destructible, it needs no TLS initializer, whereas the
 * first touch of tl_armed_repro registers a destructor and may
 * allocate, which a signal handler must not do. Atomic, so the
 * compiler keeps the disarm / rewrite / re-arm order a signal sees.
 */
constinit thread_local std::atomic<const ArmedRepro *> tl_armed{nullptr};

/** "module fatal-signal\ndetail <SIG>\n" override tail, appended
 *  after the base record so loadRepro's last-key-wins parse reports
 *  the signal instead of the placeholder detail. */
const char *
signalTail(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "module fatal-signal\ndetail killed by SIGSEGV\n";
      case SIGABRT:
        return "module fatal-signal\ndetail killed by SIGABRT\n";
      case SIGBUS:
        return "module fatal-signal\ndetail killed by SIGBUS\n";
      case SIGFPE:
        return "module fatal-signal\ndetail killed by SIGFPE\n";
      default:
        return "module fatal-signal\ndetail killed by signal\n";
    }
}

extern "C" void
fatalSignalHandler(int sig)
{
    const ArmedRepro *armed = tl_armed.load();
    if (armed != nullptr && !armed->path.empty()) {
        const int fd = ::open(armed->path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            writeAll(fd, armed->content.data(), armed->content.size());
            const char *tail = signalTail(sig);
            writeAll(fd, tail, __builtin_strlen(tail));
            ::close(fd);
        }
    }
    // Restore the default disposition and re-raise so the process
    // still dies by the original signal (exit status, core dump).
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

} // namespace

void
installFatalSignalHandlers()
{
    static std::once_flag once;
    std::call_once(once, []() {
        struct sigaction action = {};
        action.sa_handler = fatalSignalHandler;
        sigemptyset(&action.sa_mask);
        for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
            ::sigaction(sig, &action, nullptr);
    });
}

ScopedSignalRepro::ScopedSignalRepro(const CrashRepro &repro,
                                     const std::string &path)
{
    installFatalSignalHandlers();
    std::string content = formatRepro(repro);
    // Disarm while the strings change, so a signal never reads a
    // half-assigned record.
    prevArmed_ = tl_armed.exchange(nullptr) != nullptr;
    prevPath_ = std::exchange(tl_armed_repro.path, path);
    prevContent_ = std::exchange(tl_armed_repro.content,
                                 std::move(content));
    tl_armed.store(&tl_armed_repro);
}

ScopedSignalRepro::~ScopedSignalRepro()
{
    tl_armed.store(nullptr);
    tl_armed_repro.path = std::move(prevPath_);
    tl_armed_repro.content = std::move(prevContent_);
    if (prevArmed_)
        tl_armed.store(&tl_armed_repro);
}

} // namespace mask
