#include "run/experiment.hh"

#include "common/logging.hh"
#include "frontend/prepared.hh"
#include "obs/trace.hh"
#include "run/sinks.hh"
#include "sim/cpu_model.hh"

namespace lf {

std::uint64_t
deriveTrialSeed(std::uint64_t base, int trial)
{
    if (trial == 0)
        return base;
    return splitmix64(base ^ splitmix64(
        static_cast<std::uint64_t>(trial)));
}

std::vector<ExperimentSpec>
expandTrials(const ExperimentSpec &spec, int trials)
{
    lf_assert(trials >= 1, "need at least one trial, got %d", trials);
    std::vector<ExperimentSpec> expanded;
    expanded.reserve(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
        ExperimentSpec trial_spec = spec;
        trial_spec.trial = t;
        trial_spec.seed = deriveTrialSeed(spec.seed, t);
        expanded.push_back(std::move(trial_spec));
    }
    return expanded;
}

std::vector<bool>
specMessage(const ExperimentSpec &spec)
{
    // Only MessagePattern::Random consults the RNG; mix the seed so
    // the message stream is decorrelated from the Core's noise stream.
    Rng rng(splitmix64(spec.seed ^ 0x6d65737361676573ULL));
    return makeMessage(spec.pattern, spec.messageBits, rng);
}

namespace {

/** @name Per-facet resolvers
 *  The four facets of a spec (channel config, CPU model, environment,
 *  defense), each resolved from its own key-prefix slice of the
 *  override map. Internal: resolveTrial() is the public entry point
 *  that applies all four and binds a TrialContext. */
/// @{
std::string
resolveConfig(const ExperimentSpec &spec, ChannelConfig &cfg,
              ChannelExtras &extras)
{
    const ChannelInfo &info = channelInfo(spec.channel);
    cfg = info.defaultConfig;
    extras = info.defaultExtras;
    for (const auto &[key, value] : spec.overrides) {
        if (isModelOverrideKey(key))
            continue; // resolveModel()'s job.
        if (isEnvOverrideKey(key))
            continue; // resolveEnvironment()'s job.
        if (isDefenseOverrideKey(key))
            continue; // resolveDefense()'s job.
        // Addresses are cast straight to Addr, which is undefined for
        // a negative double or one >= 2^64 (NaN fails the test too).
        if ((key == "receiverBase" || key == "senderBase") &&
            !(value >= 0.0 && value < 0x1p64)) {
            return key + "=" + jsonNumber(value) +
                " out of range [0, 2^64)";
        }
        if (!applyChannelOverride(cfg, extras, key, value)) {
            return "unknown config override \"" + key +
                "\" for channel " + spec.channel;
        }
    }

    // Mirror the channel constructor/setup asserts: a bad override
    // must come back as an error row, not abort a worker thread.
    if (cfg.d < 1 || cfg.d > cfg.N) {
        return "d=" + std::to_string(cfg.d) +
            " out of range (need 1 <= d <= N=" +
            std::to_string(cfg.N) + ")";
    }
    if (cfg.M > cfg.N + 1) {
        return "M=" + std::to_string(cfg.M) + " too large (need M <= "
            "N+1=" + std::to_string(cfg.N + 1) + ")";
    }
    if (cfg.targetSet < 0 || cfg.targetSet >= 32)
        return "targetSet=" + std::to_string(cfg.targetSet) +
            " out of range [0, 32)";
    if (cfg.altSet < 0 || cfg.altSet >= 32)
        return "altSet=" + std::to_string(cfg.altSet) +
            " out of range [0, 32)";
    if (cfg.rounds < 1 || cfg.initIters < 1 || cfg.r < 1 ||
        cfg.mtSteps < 1 || cfg.mtMeasPerStep < 1 ||
        cfg.mtSenderIters < 1) {
        return "iteration counts (rounds, initIters, r, mtSteps,"
               " mtMeasPerStep, mtSenderIters) must be >= 1";
    }
    if (cfg.repetition < 1 || cfg.repetition % 2 == 0) {
        return "repetition must be odd and >= 1, got " +
            std::to_string(cfg.repetition);
    }
    if (extras.power.rounds < 1 || extras.sgx.rounds < 1 ||
        extras.sgx.mtSteps < 1 || extras.sgx.mtMeasPerStep < 1) {
        return "power/SGX round counts must be >= 1";
    }
    if (info.requiresSmt && cfg.targetSet < 16) {
        return "MT channels need a partition-mapped targetSet >= 16,"
               " got " + std::to_string(cfg.targetSet);
    }
    if (info.name.find("misalignment") != std::string::npos &&
        cfg.M <= cfg.d) {
        return "misalignment channels need M > d (got M=" +
            std::to_string(cfg.M) + ", d=" + std::to_string(cfg.d) +
            ")";
    }

    const int preamble =
        spec.preambleBits >= 0 ? spec.preambleBits : cfg.preambleBits;
    if (preamble < 2)
        return "preamble too short (" + std::to_string(preamble) +
            " bits; need >= 2)";
    return "";
}

std::string
resolveModel(const ExperimentSpec &spec, CpuModel &model)
{
    const CpuModel *base = findCpuModel(spec.cpu);
    if (base == nullptr)
        return "unknown CPU model \"" + spec.cpu + "\"";
    model = *base;
    for (const auto &[key, value] : spec.overrides) {
        if (!isModelOverrideKey(key))
            continue;
        if (!applyModelOverride(model, key, value))
            return "unknown model override \"" + key + "\"";
    }
    if (!(model.freqGhz > 0.0))
        return "model.freqGhz must be > 0";
    if (model.noise.stddevCycles < 0.0 ||
        model.noise.spikeCycles < 0.0 ||
        model.noise.jitterPerKcycle < 0.0 ||
        model.sgx.entryJitterStddev < 0.0 ||
        model.rapl.noiseStddevMicroJoules < 0.0) {
        return "model noise magnitudes must be >= 0";
    }
    if (model.noise.spikeProb < 0.0 || model.noise.spikeProb > 1.0)
        return "model.spikeProb must be in [0, 1]";
    if (model.deadlockKcycles < 1)
        return "model.deadlock_kcycles must be >= 1";
    if (!(model.rapl.updateIntervalUs > 0.0) ||
        !(model.rapl.quantumMicroJoules > 0.0)) {
        return "RAPL interval and quantum must be > 0";
    }
    return "";
}

std::string
resolveEnvironment(const ExperimentSpec &spec, EnvironmentSpec &env)
{
    env = EnvironmentSpec{};
    for (const auto &[key, value] : spec.overrides) {
        if (!isEnvOverrideKey(key))
            continue;
        if (!applyEnvOverride(env, key, value))
            return "unknown environment override \"" + key + "\"";
    }
    return validateEnvironmentSpec(env);
}

std::string
resolveDefense(const ExperimentSpec &spec, DefenseSpec &defense)
{
    defense = DefenseSpec{};
    for (const auto &[key, value] : spec.overrides) {
        if (!isDefenseOverrideKey(key))
            continue;
        if (!applyDefenseOverride(defense, key, value))
            return "unknown defense override \"" + key + "\"";
    }
    return validateDefenseSpec(defense);
}

/** Resolve all four facets without binding anything. */
std::string
resolveFacets(const ExperimentSpec &spec, CpuModel &model,
              ChannelConfig &cfg, ChannelExtras &extras,
              EnvironmentSpec &env, DefenseSpec &defense)
{
    if (!hasChannel(spec.channel))
        return "unknown channel \"" + spec.channel + "\"";
    if (spec.messageBits == 0)
        return "message must have at least one bit";
    const std::string model_error = resolveModel(spec, model);
    if (!model_error.empty())
        return model_error;
    const std::string env_error = resolveEnvironment(spec, env);
    if (!env_error.empty())
        return env_error;
    const std::string defense_error = resolveDefense(spec, defense);
    if (!defense_error.empty())
        return defense_error;
    return resolveConfig(spec, cfg, extras);
}
/// @}

} // namespace

std::string
validateSpec(const ExperimentSpec &spec)
{
    CpuModel model;
    ChannelConfig cfg;
    ChannelExtras extras;
    EnvironmentSpec env;
    DefenseSpec defense;
    return resolveFacets(spec, model, cfg, extras, env, defense);
}

std::string
resolveTrial(const ExperimentSpec &spec, TrialContext &ctx,
             bool *skipped)
{
    if (skipped != nullptr)
        *skipped = false;
    CpuModel model;
    ChannelConfig cfg;
    ChannelExtras extras;
    EnvironmentSpec env;
    DefenseSpec defense;
    const std::string error =
        resolveFacets(spec, model, cfg, extras, env, defense);
    if (!error.empty())
        return error;
    if (!channelSupportedOn(spec.channel, model)) {
        if (skipped != nullptr)
            *skipped = true;
        return "channel " + spec.channel + " not supported on " +
            spec.cpu;
    }
    // bind() folds the defense's model-level mitigations (RAPL
    // coarsening) into the context's model copy before the Core is
    // built/reset.
    ctx.bind(model, spec.seed, cfg, extras, env, defense,
             spec.preambleBits);
    return "";
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    TrialContext ctx;
    return runExperiment(spec, ctx);
}

ExperimentResult
runExperiment(const ExperimentSpec &spec, TrialContext &ctx)
{
    ExperimentResult out;
    out.spec = spec;

    // Counter collection and trace phases only *read* (and the
    // prepared-cache delta reads thread-local tallies), so results
    // are bit-identical with either switched on or off.
    const bool counters_on = obs::countersEnabled();
    const std::uint64_t prep_hits =
        counters_on ? preparedCacheThreadHits() : 0;
    const std::uint64_t prep_misses =
        counters_on ? preparedCacheThreadMisses() : 0;

    {
        obs::TraceScope span("resolve");
        out.error = resolveTrial(spec, ctx, &out.skipped);
    }
    if (!out.error.empty())
        return out;

    const std::uint64_t prepare_start =
        obs::traceEnabled() ? obs::traceNowUs() : 0;
    auto channel = makeChannel(spec.channel, ctx);
    obs::traceComplete("prepare", prepare_start);

    const std::uint64_t calibrate_start =
        obs::traceEnabled() ? obs::traceNowUs() : 0;
    const CovertChannel::Calibration calib = channel->calibrate(ctx);
    obs::traceComplete("calibrate", calibrate_start);

    const std::uint64_t transmit_start =
        obs::traceEnabled() ? obs::traceNowUs() : 0;
    out.result = channel->transmitMessage(specMessage(spec), ctx, calib);
    obs::traceComplete("transmit", transmit_start);
    out.extras = ctx.extras();
    out.ok = true;

    if (counters_on) {
        auto set = std::make_shared<obs::CounterSet>(
            obs::collectCoreCounters(ctx.core()));
        set->preparedCacheHits =
            preparedCacheThreadHits() - prep_hits;
        set->preparedCacheMisses =
            preparedCacheThreadMisses() - prep_misses;
        out.counters = std::move(set);
    }
    return out;
}

} // namespace lf
