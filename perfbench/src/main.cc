/**
 * @file
 * lf_perfbench: the paper-workload benchmark program.
 *
 *   lf_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                [--expect FILE] [--fingerprints-out FILE]
 *                [--work-dir DIR] [--build-type T] [--lto 0|1]
 *                [--commit C] [--source-sha256 H]
 *
 * (--setup-only 1 only sets the workload up and exits: the program
 * times set-up by running itself that way.)
 *
 * Prints a human-readable report (host and build, notes, every metric
 * by name with its unit) and, as the last line, one JSON object:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing and counters off; with --trace 1 they are the per-layer
 * ones of a traced run. perfbench/run.py builds this program and passes
 * the build description; see perfbench/README.md.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hh"
#include "run/sinks.hh"
#include "workloads.hh"

namespace {

struct BuildInfo
{
    std::string buildType = "unknown";
    bool lto = false;
    std::string commit = "unknown";
    std::string sourceSha256 = "unknown";
};

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "lf_perfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: lf_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--expect FILE]\n"
                 "       [--fingerprints-out FILE] [--work-dir DIR] "
                 "[--build-type T] [--lto 0|1]\n"
                 "       [--commit C] [--source-sha256 H]\n"
                 "workloads:");
    for (const std::string &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-' || errno == ERANGE)
        usage((std::string("bad value for ") + flag).c_str());
    return value;
}

std::string
hostJson(const perfbench::Options &options, const BuildInfo &build)
{
    using lf::jsonString;
    return std::string("{\"workload\":") + jsonString(options.workload) +
        ",\"seed\":" + std::to_string(options.seed) +
        ",\"trace\":" + (options.trace ? "true" : "false") +
        ",\"nproc\":" + std::to_string(perfbench::usableCpus()) +
        ",\"hw_threads\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"build_type\":" + jsonString(build.buildType) +
        ",\"compiler\":" + jsonString(compilerName()) +
        ",\"lto\":" + (build.lto ? "true" : "false") +
        ",\"commit\":" + jsonString(build.commit) +
        ",\"source_sha256\":" + jsonString(build.sourceSha256) +
        ",\"probe_ms\":" + lf::jsonNumber(perfbench::hostProbeMs()) + "}";
}

std::string
resultJson(const perfbench::Outcome &outcome, bool correct)
{
    std::string json = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(outcome.attempted) +
        ", \"failed\": " + std::to_string(outcome.failed) +
        ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric &m : outcome.metrics) {
        json += (first ? "" : ", ") + lf::jsonString(m.name) +
            ": {\"value\": " + lf::jsonNumber(m.value) +
            ", \"unit\": " + lf::jsonString(m.unit) + "}";
        first = false;
    }
    return json + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    BuildInfo build;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = parseUnsigned(value, "--seed");
        else if (flag == "--seconds")
            options.seconds =
                static_cast<double>(parseUnsigned(value, "--seconds"));
        else if (flag == "--trace")
            options.trace = parseUnsigned(value, "--trace") != 0;
        else if (flag == "--expect")
            options.expectPath = value;
        else if (flag == "--fingerprints-out")
            options.fingerprintsOut = value;
        else if (flag == "--work-dir")
            options.workDir = value;
        else if (flag == "--setup-only")
            setupOnly = parseUnsigned(value, "--setup-only") != 0;
        else if (flag == "--build-type")
            build.buildType = value;
        else if (flag == "--lto")
            build.lto = parseUnsigned(value, "--lto") != 0;
        else if (flag == "--commit")
            build.commit = value;
        else if (flag == "--source-sha256")
            build.sourceSha256 = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    bool known = false;
    for (const std::string &name : perfbench::workloadNames())
        known = known || name == options.workload;
    if (!known)
        usage(("unknown workload '" + options.workload + "'").c_str());
    if (options.workDir.empty())
        options.workDir = ".perfbench-work";
    if (setupOnly) {
        try {
            perfbench::runSetupOnly(options);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lf_perfbench: %s\n", e.what());
            return 1;
        }
        return 0;
    }

    std::printf("perfbench %s: seed %llu, %g s, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("host: %s\n", hostJson(options, build).c_str());
    std::fflush(stdout);

    perfbench::Outcome outcome;
    try {
        outcome = perfbench::runWorkload(options);
    } catch (const std::exception &e) {
        std::error_code ignored;
        std::filesystem::remove_all(options.workDir, ignored);
        std::fprintf(stderr, "lf_perfbench: %s\n", e.what());
        return 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.workDir, ignored);

    for (const std::string &note : outcome.notes)
        std::printf("  %s\n", note.c_str());
    for (const perfbench::Metric &m : outcome.metrics) {
        std::printf("  %-34s %-22s %s\n", m.name.c_str(),
                    lf::jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    std::printf("%s\n", resultJson(outcome, correct).c_str());
    return correct ? 0 : 1;
}
