#include "frontend/bpu.hh"

#include <algorithm>
#include <utility>

namespace lf {

bool
Bpu::btbHas(Addr branch_addr) const
{
    return btb_.find(branch_addr) != btb_.end();
}

void
Bpu::btbInsert(Addr branch_addr, Addr target)
{
    btb_[branch_addr] = target;
}

bool
Bpu::predictCond(Addr branch_addr) const
{
    auto it = counters_.find(branch_addr);
    if (it == counters_.end())
        return false;
    return it->second >= 2;
}

void
Bpu::updateCond(Addr branch_addr, bool taken)
{
    std::uint8_t &counter = counters_[branch_addr];
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

void
Bpu::reset()
{
    btb_.clear();
    counters_.clear();
    btbMisses_ = 0;
    condMispredicts_ = 0;
}

void
Bpu::appendState(std::vector<std::uint64_t> &out) const
{
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    auto append_sorted = [&](auto &&map) {
        entries.assign(map.begin(), map.end());
        std::sort(entries.begin(), entries.end());
        out.push_back(entries.size());
        for (const auto &[addr, value] : entries) {
            out.push_back(addr);
            out.push_back(value);
        }
    };
    append_sorted(btb_);
    append_sorted(counters_);
}

} // namespace lf
