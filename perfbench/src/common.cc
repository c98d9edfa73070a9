#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

namespace {

/** Continued fraction of the incomplete beta function (modified
 *  Lentz); converges fast for x < (a + 1) / (a + b + 2). */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr double kTiny = 1e-300;
    const auto guard = [](double v) {
        return std::fabs(v) < kTiny ? kTiny : v;
    };
    double c = 1.0;
    double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 10000; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
        d = 1.0 / guard(1.0 + aa * d);
        c = guard(1.0 + aa / c);
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
        d = 1.0 / guard(1.0 + aa * d);
        c = guard(1.0 + aa / c);
        const double step = d * c;
        h *= step;
        if (std::fabs(step - 1.0) < 1e-14)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
regularizedBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                  std::lgamma(b) + a * std::log(x) +
                                  b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

} // namespace

double
hdQuantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double a = q * (n + 1.0);
    const double b = (1.0 - q) * (n + 1.0);
    double estimate = 0.0;
    double below = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double upTo =
            regularizedBeta(a, b, static_cast<double>(i + 1) / n);
        estimate += (upTo - below) * values[i];
        below = upTo;
    }
    return estimate;
}

Tail
tailOf(std::vector<double> values)
{
    static const double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                     90.0, 80.0, 75.0, 50.0};
    Tail tail;
    tail.samples = values.size();
    const double n = static_cast<double>(values.size());
    for (const double p : kLadder) {
        // Nearest rank ceil(p n / 100) leaves n - rank samples beyond.
        if (n - std::ceil(p / 100.0 * n) >= 10.0) {
            tail.percentile = p;
            tail.value = hdQuantile(std::move(values), p / 100.0);
            return tail;
        }
    }
    // Fewer than 20 samples: no percentile has ten beyond it; report
    // the maximum, flagged as percentile 100.
    tail.percentile = 100.0;
    tail.value = quantile(std::move(values), 1.0);
    return tail;
}

std::uint64_t
fnv1a64(const std::string &bytes, std::uint64_t hash)
{
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
hostProbeMs()
{
    std::vector<double> ms;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        std::uint64_t x = 88172645463325252ull;
        for (int i = 0; i < 20'000'000; ++i) { // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        sink = sink + x;
        ms.push_back(secondsSince(start) * 1e3);
    }
    return median(ms);
}

const std::array<const char *, kFamilies> &
familyNames()
{
    static const std::array<const char *, kFamilies> names = {
        "nonmt", "mt", "slow-switch", "power", "sgx-nonmt", "sgx-mt"};
    return names;
}

std::size_t
familyOf(const std::string &channel)
{
    const auto starts = [&](const char *prefix) {
        return channel.rfind(prefix, 0) == 0;
    };
    if (starts("sgx-mt-"))
        return 5;
    if (starts("sgx-"))
        return 4;
    if (starts("power-"))
        return 3;
    if (channel == "slow-switch")
        return 2;
    if (starts("mt-"))
        return 1;
    return 0;
}

void
CounterTotals::add(const lf::obs::CounterSet &set, int issueWidth)
{
    ++trials;
    cycles += set.cycles;
    fastForwarded += set.fastForwardedCycles;
    retiredInsts += set.retiredInsts;
    retiredUops += set.retiredUops;
    uopsMite += set.uopsMite;
    uopsDsb += set.uopsDsb;
    uopsLsd += set.uopsLsd;
    dsbHits += set.dsbHits;
    dsbMisses += set.dsbMisses;
    pathSwitches += set.dsbToMiteSwitches + set.miteToDsbSwitches;
    preparedHits += set.preparedCacheHits;
    preparedMisses += set.preparedCacheMisses;
    retireSlotCapacity +=
        set.retireSlotCycles * static_cast<std::uint64_t>(issueWidth);
    retireSlotsUsed += set.retireSlotsUsed;
    snapshotHits += set.snapshotHits;
    snapshotMisses += set.snapshotMisses;
    snapshotBypasses += set.snapshotBypasses;
}

namespace {

double
sum(const std::array<double, kFamilies> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

/** The unsigned number after @p key inside [from, to), or @p fallback. */
std::uint64_t
numberAfter(const std::string &text, const char *key, std::size_t from,
            std::size_t to, std::uint64_t fallback = 0)
{
    const std::size_t at = text.find(key, from);
    if (at == std::string::npos || at >= to)
        return fallback;
    return std::strtoull(text.c_str() + at + std::strlen(key), nullptr,
                         10);
}

} // namespace

double
TraceBreakdown::totalTrialUs() const
{
    return sum(trialUs);
}

double
TraceBreakdown::totalCalibrateUs() const
{
    return sum(calibrateUs);
}

double
TraceBreakdown::totalTransmitUs() const
{
    return sum(transmitUs);
}

TraceBreakdown
analyzeTrace(const std::string &json,
             const std::vector<lf::ExperimentSpec> &specs)
{
    // renderTraceJson() writes one flat object per event, each ring's
    // events contiguous and in recording order:
    //   {"name":"N","cat":"lf","ph":"X","ts":T,"pid":1,"tid":I,
    //    "dur":D,"args":{"v":A}}
    static const char kOpen[] = "{\"name\":\"";
    TraceBreakdown out;
    std::uint64_t tid = ~0ull;
    double pendingCalibrate = 0.0;
    double pendingTransmit = 0.0;
    std::size_t at = json.find(kOpen);
    while (at != std::string::npos) {
        const std::size_t nameStart = at + std::strlen(kOpen);
        const std::size_t nameEnd = json.find('"', nameStart);
        if (nameEnd == std::string::npos)
            break;
        std::size_t next = json.find(kOpen, nameEnd);
        const std::size_t end = next == std::string::npos ? json.size()
                                                          : next;
        const std::string name =
            json.substr(nameStart, nameEnd - nameStart);
        const std::uint64_t eventTid =
            numberAfter(json, "\"tid\":", nameEnd, end);
        if (eventTid != tid) {
            tid = eventTid;
            pendingCalibrate = pendingTransmit = 0.0;
        }
        const double dur = static_cast<double>(
            numberAfter(json, "\"dur\":", nameEnd, end));
        if (name == "trial") {
            const std::uint64_t index =
                numberAfter(json, "\"v\":", nameEnd, end, ~0ull);
            if (index < specs.size()) {
                const std::size_t fam = familyOf(specs[index].channel);
                out.trialUs[fam] += dur;
                out.calibrateUs[fam] += pendingCalibrate;
                out.transmitUs[fam] += pendingTransmit;
                ++out.trials;
            }
            pendingCalibrate = pendingTransmit = 0.0;
        } else if (name == "calibrate") {
            pendingCalibrate += dur;
        } else if (name == "transmit") {
            pendingTransmit += dur;
        } else if (name == "resolve") {
            out.resolveUs += dur;
        } else if (name == "prepare") {
            out.prepareUs += dur;
        } else if (name == "snapshot_restore") {
            out.restoreUs += dur;
        } else if (name == "window_occupancy") {
            out.occupancy.push_back(static_cast<double>(
                numberAfter(json, "\"value\":", nameEnd, end)));
        } else if (name == "bench_sink_row") {
            out.sinkRowUs.push_back(dur);
        }
        at = next;
    }
    return out;
}

} // namespace perfbench
