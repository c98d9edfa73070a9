/**
 * @file
 * Composable defense/mitigation model for covert-channel runs.
 *
 * The paper's final section surveys frontend mitigations; this module
 * is the defender-side twin of the environment model (src/noise): a
 * DefenseSpec names which mitigations one run deploys, a Defense binds
 * the spec to a per-trial RNG, and the channel's transmit loop (plus
 * the fingerprint trace harness) consults the object. The modelled
 * mitigations:
 *
 *  - FlushDefenseSpec: flush the DSB on domain/context switches
 *    (every program bind is a domain switch; the quantum selects
 *    every k-th one) — the DSB state carrying a bit no longer
 *    survives the encode-to-decode handoff of the time-sliced
 *    channels;
 *  - PartitionDefenseSpec: *static* SMT partitioning of the DSB and
 *    the LSD. The DSB is pinned in its 2 x 16-set partitioned mapping
 *    regardless of sibling activity, so the repartition-invalidation
 *    observable the MT attacks encode into never fires; the LSD's
 *    replay port is statically split, streaming privately (without
 *    arbitrating for the shared MITE/DSB delivery slot) at half
 *    bandwidth whether or not the sibling runs — non-work-conserving,
 *    so an LSD-resident receiver loop times the same with and without
 *    a co-resident sender. The IPC fingerprint attacker (Sec. XI)
 *    deliberately exceeds the LSD and keeps its contention waveform:
 *    that channel survives this defense;
 *  - disableDsb: MITE-only delivery (micro-op cache off, as microcode
 *    updates have shipped for other frontend structures). No DSB
 *    state means nothing for the eviction channels to encode into —
 *    but the slow-switch channel lives on the MITE path and survives;
 *  - RandomizeDefenseSpec: keyed (CEASER-style) DSB set-index mapping
 *    re-salted every epoch: sender and receiver lines with equal
 *    address bits no longer collide in the same set, and each re-salt
 *    invalidates moved lines;
 *  - SmoothingDefenseSpec: constant-rate delivery smoothing — each
 *    observation is padded toward the worst case seen so far, which
 *    collapses the class gap non-linearly (an affine filter would
 *    preserve separability);
 *  - RaplDefenseSpec: quantization/update-interval coarsening of the
 *    RAPL energy counter (the PLATYPUS-class mitigation), applied to
 *    the trial's CPU-model copy via applyDefenseToModel() so the
 *    degraded readings go through the real RaplCounter.
 *
 * An all-default spec is *inactive*: every hook is a no-op that never
 * draws from the RNG and never touches the core, keeping the defended
 * path bit-identical to the legacy path for every registry channel.
 *
 * Spec fields are addressable as "defense."-prefixed override keys
 * (see applyDefenseOverride()), riding in ExperimentSpec::overrides
 * beside the "model." and "env." knobs and sweepable as axes
 * (e.g. --sweep defense.flush_quantum_slots=1|4|16).
 */

#ifndef LF_DEFENSE_DEFENSE_HH
#define LF_DEFENSE_DEFENSE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace lf {

class Core;
struct CpuModel;

/** DSB flush on domain switch ("defense.flush_*" keys). */
struct FlushDefenseSpec
{
    /** Domain-switch flush quantum ("defense.flush_switch_quantum"):
     *  every quantum-th domain switch — a program being scheduled
     *  onto a hardware thread, see Core::setDomainSwitchHook() — runs
     *  a full DSB flush (which drops dependent LSD loops via the
     *  inclusive hierarchy). 0 disables the mitigation; 1 flushes on
     *  every switch, and smaller quanta hurt the time-sliced
     *  channels more (the bit is carried by DSB state that must
     *  survive the encode-to-decode handoff). */
    int switchQuantum = 0;
};

/** Static SMT partitioning ("defense.partition_*" keys). Only
 *  meaningful on SMT-enabled CPU models; a no-op elsewhere. */
struct PartitionDefenseSpec
{
    /** Pin the DSB in partitioned (2 x 16-set) indexing permanently
     *  ("defense.partition_dsb"). */
    bool dsb = false;
    /** Statically split the LSD replay port: private streaming at
     *  half bandwidth, sibling-independent
     *  ("defense.partition_lsd"). */
    bool lsd = false;
};

/** Keyed DSB set-index randomization ("defense.randomize_*" keys). */
struct RandomizeDefenseSpec
{
    /** Enable the keyed index mapping ("defense.randomize_sets"). */
    bool enabled = false;
    /** Re-salt period in transmission slots
     *  ("defense.randomize_epoch_slots"); each epoch draws a fresh
     *  salt from the defense RNG. Shape knob: does not activate the
     *  mitigation on its own. */
    int epochSlots = 64;
};

/** Observable smoothing ("defense.smoothing"). */
struct SmoothingDefenseSpec
{
    /** Padding strength in [0, 1]: each raw observable (cycles or
     *  microjoules) is moved this fraction of the way up to the worst
     *  case observed so far in the trial. 0 disables; 1 delivers
     *  every slot at the running worst-case rate. */
    double strength = 0.0;
};

/** RAPL interface coarsening ("defense.rapl_*" keys). */
struct RaplDefenseSpec
{
    /** Raise the RAPL energy-status quantum to at least this many
     *  microjoules ("defense.rapl_quantum_uj"); 0 keeps the model's
     *  native unit. */
    double quantumUj = 0.0;
    /** Multiply the RAPL update interval ("defense.rapl_interval_scale",
     *  >= 1); 1 keeps the native refresh rate. */
    double intervalScale = 1.0;
};

/** The full mitigation deployment of one run. */
struct DefenseSpec
{
    FlushDefenseSpec flush;
    PartitionDefenseSpec partition;
    /** MITE-only delivery ("defense.disable_dsb"). */
    bool disableDsb = false;
    RandomizeDefenseSpec randomize;
    SmoothingDefenseSpec smoothing;
    RaplDefenseSpec rapl;

    /** True when every activating knob is at its default: an inactive
     *  Defense's hooks are no-ops and the run is bit-identical to the
     *  legacy no-defense path. Shape knobs (epochSlots) do not
     *  activate on their own. */
    bool inactive() const;
};

/**
 * Validate magnitudes/ranges of @p spec. @return an error message or
 * the empty string.
 */
std::string validateDefenseSpec(const DefenseSpec &spec);

/**
 * Apply one "defense.<knob>=value" override to @p spec. Keys:
 *   defense.flush_switch_quantum, defense.partition_dsb,
 *   defense.partition_lsd, defense.disable_dsb,
 *   defense.randomize_sets, defense.randomize_epoch_slots,
 *   defense.smoothing, defense.rapl_quantum_uj,
 *   defense.rapl_interval_scale.
 * @return false if @p key names no known defense knob.
 */
bool applyDefenseOverride(DefenseSpec &spec, const std::string &key,
                          double value);

/** True when @p key is a defense override ("defense." prefix). */
bool isDefenseOverrideKey(const std::string &key);

/** Keys accepted by applyDefenseOverride(), for help text. */
std::vector<std::string> defenseOverrideKeys();

/** Seed of a trial's Defense RNG, derived from the trial seed with
 *  its own salt — decorrelated from the Core, message, and
 *  environment streams, so deploying a defense never reshuffles
 *  them. */
std::uint64_t deriveDefenseSeed(std::uint64_t trial_seed);

/**
 * Fold the model-level mitigations of @p spec (the RAPL coarsening)
 * into @p model, the trial's private CPU-model copy. A default spec
 * leaves the model untouched.
 */
void applyDefenseToModel(CpuModel &model, const DefenseSpec &spec);

/**
 * A DefenseSpec bound to a per-trial RNG: the object the transmit
 * loop consults. One Defense belongs to one trial (it carries slot
 * and smoothing state); construct a fresh one per trial from the
 * trial seed.
 */
class Defense
{
  public:
    /** An inactive defense (all hooks no-ops). */
    Defense();

    /** Bind @p spec with the RNG seeded from @p trial_seed (via
     *  deriveDefenseSeed()). */
    Defense(const DefenseSpec &spec, std::uint64_t trial_seed);

    Defense(const Defense &) = delete;
    Defense &operator=(const Defense &) = delete;
    ~Defense();

    const DefenseSpec &spec() const { return spec_; }
    bool inactive() const { return inactive_; }
    /** Slots started so far (diagnostics/tests). */
    std::uint64_t slots() const { return slots_; }
    /** Domain switches observed so far (diagnostics/tests). */
    std::uint64_t domainSwitches() const { return switches_; }

    /**
     * Reconfigure @p core once per trial: pin the static DSB
     * partition, split the LSD replay port, disable the DSB
     * (MITE-only), and install the flush-on-domain-switch hook.
     * Idempotent; called by CovertChannel::transmit() before the
     * first slot. SMT partitioning is a no-op on models with SMT
     * disabled. The hook is uninstalled when this Defense is
     * destroyed.
     */
    void arm(Core &core);

    /**
     * Start one transmission slot: re-salt the keyed set-index
     * mapping at epoch boundaries. (The flush mitigation acts on
     * domain switches, not slots — see arm().)
     */
    void beginSlot(Core &core);

    /** Pad a timing observable (cycles) toward the running worst
     *  case (constant-rate delivery smoothing). */
    double filterTiming(double cycles);

    /** Same padding for a power observable (microjoules per round —
     *  constant-power padding). */
    double filterPower(double microjoules);

    /** Padding for a *rate* observable (e.g. the fingerprint
     *  attacker's IPC), where larger is better: the worst case is
     *  the running minimum, and smoothing pads down toward it. */
    double filterRate(double rate);

  private:
    double padObservable(double value);
    void onDomainSwitch(Core &core);

    DefenseSpec spec_;
    bool inactive_ = true;
    Rng rng_;
    std::uint64_t slots_ = 0;
    std::uint64_t switches_ = 0;
    Core *armedCore_ = nullptr;
    double worstObservable_ = 0.0;
    bool haveWorst_ = false;
    double worstRate_ = 0.0;
    bool haveWorstRate_ = false;
};

} // namespace lf

#endif // LF_DEFENSE_DEFENSE_HH
