#include "sim/cpu_model.hh"

#include "common/logging.hh"

namespace lf {

namespace {

CpuModel
makeGold6226()
{
    CpuModel m;
    m.name = "Gold 6226";
    m.microarchitecture = "Cascade Lake";
    m.cores = 12;
    m.freqGhz = 2.7;
    m.smtEnabled = true;
    m.frontend.lsdEnabled = true;
    // Busy departmental server: the noisiest machine in the study.
    m.noise = {5.0, 0.02, 160.0, 150, 180, 5.0};
    m.sgx.supported = false;
    return m;
}

CpuModel
makeXeonE2174G()
{
    CpuModel m;
    m.name = "E-2174G";
    m.microarchitecture = "Coffee Lake";
    m.cores = 4;
    m.freqGhz = 3.8;
    m.smtEnabled = true;
    m.frontend.lsdEnabled = false; // LSD fused off on this machine
    m.noise = {3.0, 0.010, 120.0, 118, 95, 2.0};
    m.sgx.supported = true;
    return m;
}

CpuModel
makeXeonE2286G()
{
    CpuModel m;
    m.name = "E-2286G";
    m.microarchitecture = "Coffee Lake";
    m.cores = 6;
    m.freqGhz = 4.0;
    m.smtEnabled = true;
    m.frontend.lsdEnabled = false; // LSD fused off on this machine
    m.noise = {3.2, 0.010, 120.0, 108, 90, 2.2};
    m.sgx.supported = true;
    return m;
}

CpuModel
makeXeonE2288G()
{
    CpuModel m;
    m.name = "E-2288G";
    m.microarchitecture = "Coffee Lake";
    m.cores = 8;
    m.freqGhz = 3.7;
    m.smtEnabled = false; // Azure instance: hyper-threading disabled
    m.frontend.lsdEnabled = true;
    // Quietest machine in the study -> best rates / lowest errors.
    m.noise = {1.8, 0.004, 100.0, 75, 70, 1.2};
    m.sgx.supported = true;
    return m;
}

} // namespace

const CpuModel &
gold6226()
{
    static const CpuModel model = makeGold6226();
    return model;
}

const CpuModel &
xeonE2174G()
{
    static const CpuModel model = makeXeonE2174G();
    return model;
}

const CpuModel &
xeonE2286G()
{
    static const CpuModel model = makeXeonE2286G();
    return model;
}

const CpuModel &
xeonE2288G()
{
    static const CpuModel model = makeXeonE2288G();
    return model;
}

std::vector<const CpuModel *>
allCpuModels()
{
    return {&gold6226(), &xeonE2174G(), &xeonE2286G(), &xeonE2288G()};
}

std::vector<const CpuModel *>
smtCpuModels()
{
    return {&gold6226(), &xeonE2174G(), &xeonE2286G()};
}

std::vector<const CpuModel *>
sgxCpuModels()
{
    return {&xeonE2174G(), &xeonE2286G(), &xeonE2288G()};
}

const CpuModel &
cpuModelByName(const std::string &name)
{
    const CpuModel *model = findCpuModel(name);
    if (model == nullptr)
        lf_fatal("unknown CPU model '%s'", name.c_str());
    return *model;
}

const CpuModel *
findCpuModel(const std::string &name)
{
    for (const CpuModel *model : allCpuModels()) {
        if (model->name == name)
            return model;
    }
    return nullptr;
}

bool
isModelOverrideKey(const std::string &key)
{
    return key.rfind("model.", 0) == 0;
}

bool
applyModelOverride(CpuModel &model, const std::string &key,
                   double value)
{
    if (!isModelOverrideKey(key))
        return false;
    const std::string knob = key.substr(6);
    // Cycles-typed knobs share the clamped-cast treatment of
    // applyChannelOverride(): casting an out-of-range double is UB and
    // the values arrive from the CLI.
    const auto as_cycles = [value] {
        if (value <= 0.0)
            return Cycles{0};
        if (value >= 1e18)
            return static_cast<Cycles>(1e18);
        return static_cast<Cycles>(value);
    };
    if (knob == "freqGhz") model.freqGhz = value;
    else if (knob == "smtEnabled") model.smtEnabled = value != 0.0;
    else if (knob == "lsdEnabled")
        model.frontend.lsdEnabled = value != 0.0;
    else if (knob == "lsdLoopBubble")
        model.frontend.lsdLoopBubble = as_cycles();
    else if (knob == "lcpStall") model.frontend.lcpStall = as_cycles();
    else if (knob == "dsbToMiteSwitch")
        model.frontend.dsbToMiteSwitch = as_cycles();
    else if (knob == "miteToDsbSwitch")
        model.frontend.miteToDsbSwitch = as_cycles();
    else if (knob == "noiseStddevCycles")
        model.noise.stddevCycles = value;
    else if (knob == "spikeProb") model.noise.spikeProb = value;
    else if (knob == "spikeCycles") model.noise.spikeCycles = value;
    else if (knob == "tscOverhead")
        model.noise.tscOverhead = as_cycles();
    else if (knob == "syncCycles") model.noise.syncCycles = as_cycles();
    else if (knob == "jitterPerKcycle")
        model.noise.jitterPerKcycle = value;
    else if (knob == "deadlock_kcycles")
        model.deadlockKcycles = as_cycles();
    else if (knob == "sgxEntryCycles")
        model.sgx.entryCycles = as_cycles();
    else if (knob == "sgxEntryJitterStddev")
        model.sgx.entryJitterStddev = value;
    else if (knob == "raplUpdateIntervalUs")
        model.rapl.updateIntervalUs = value;
    else if (knob == "raplQuantumMicroJoules")
        model.rapl.quantumMicroJoules = value;
    else if (knob == "raplNoiseStddevMicroJoules")
        model.rapl.noiseStddevMicroJoules = value;
    else return false;
    return true;
}

std::vector<std::string>
modelOverrideKeys()
{
    return {"model.freqGhz", "model.smtEnabled", "model.lsdEnabled",
            "model.lsdLoopBubble", "model.lcpStall",
            "model.dsbToMiteSwitch", "model.miteToDsbSwitch",
            "model.noiseStddevCycles", "model.spikeProb",
            "model.spikeCycles", "model.tscOverhead",
            "model.syncCycles", "model.jitterPerKcycle",
            "model.deadlock_kcycles",
            "model.sgxEntryCycles", "model.sgxEntryJitterStddev",
            "model.raplUpdateIntervalUs",
            "model.raplQuantumMicroJoules",
            "model.raplNoiseStddevMicroJoules"};
}

} // namespace lf
