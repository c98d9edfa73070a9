#include "paper_rates.hh"

#include <cstddef>

namespace perfbench {

namespace {

struct Row
{
    const char *channel;
    double kbps[4]; //!< 0: the paper prints "-" (unsupported cell).
};

// Table III, columns Gold 6226, E-2174G, E-2286G, E-2288G.
constexpr const char *kTable3Cpus[4] = {"Gold 6226", "E-2174G",
                                        "E-2286G", "E-2288G"};
constexpr Row kTable3[] = {
    {"nonmt-stealthy-eviction", {419.67, 851.81, 1182.55, 1356.43}},
    {"nonmt-stealthy-misalignment", {713.01, 466.02, 723.15, 1094.39}},
    {"nonmt-fast-eviction", {501.06, 977.68, 1205.90, 1399.96}},
    {"nonmt-fast-misalignment", {500.90, 959.45, 1228.35, 1410.84}},
    {"mt-eviction", {115.97, 113.02, 161.63, 0.0}},
    {"mt-misalignment", {129.36, 152.44, 200.37, 0.0}},
};

// Table VI, columns E-2174G, E-2286G, E-2288G (the Gold 6226 has no
// SGX).
constexpr const char *kTable6Cpus[3] = {"E-2174G", "E-2286G",
                                        "E-2288G"};
constexpr Row kTable6[] = {
    {"sgx-nonmt-stealthy-eviction", {18.96, 19.56, 21.20}},
    {"sgx-nonmt-stealthy-misalignment", {23.93, 24.70, 27.10}},
    {"sgx-nonmt-fast-eviction", {29.35, 32.01, 34.48}},
    {"sgx-nonmt-fast-misalignment", {30.36, 31.18, 35.20}},
    {"sgx-mt-eviction", {7.85, 14.89, 0.0}},
    {"sgx-mt-misalignment", {6.39, 13.62, 0.0}},
};

template <std::size_t Rows, std::size_t Cols>
double
lookup(const Row (&rows)[Rows], const char *const (&cpus)[Cols],
       const std::string &channel, const std::string &cpu)
{
    for (const Row &row : rows) {
        if (channel != row.channel)
            continue;
        for (std::size_t c = 0; c < Cols; ++c) {
            if (cpu == cpus[c])
                return row.kbps[c];
        }
    }
    return 0.0;
}

} // namespace

double
paperRateKbps(const std::string &channel, const std::string &cpu)
{
    const double rate = lookup(kTable3, kTable3Cpus, channel, cpu);
    return rate > 0.0 ? rate : lookup(kTable6, kTable6Cpus, channel, cpu);
}

} // namespace perfbench
