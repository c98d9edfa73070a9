/**
 * @file
 * The paper's published transmission rates (Kbps) for the cells the
 * benchmark scores its fidelity on: Table III (eviction and
 * misalignment channels, four machines) and Table VI (SGX variants,
 * three machines).
 *
 * The bench binaries carry the same figures as display strings
 * (bench/table3_covert_channels.cc, bench/table6_sgx.cc); this is a
 * numeric copy so paper_rate_log_err can be computed. The planned
 * fidelity scorecard is to replace both copies with one typed table.
 *
 * Power cells (Table V) are deliberately absent: the registry runs
 * power channels at 20k rounds, while the paper's rates are for 240k
 * rounds and only comparable after the normalization in
 * bench/table5_power_channels.cc.
 */

#ifndef LF_PERFBENCH_PAPER_RATES_HH
#define LF_PERFBENCH_PAPER_RATES_HH

#include <string>

namespace perfbench {

/** The paper's rate for (channel, CPU model name), or a value <= 0
 *  when the paper reports no such cell. */
double paperRateKbps(const std::string &channel, const std::string &cpu);

} // namespace perfbench

#endif // LF_PERFBENCH_PAPER_RATES_HH
