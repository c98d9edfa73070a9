/**
 * @file
 * String-keyed registry of every covert channel in the library.
 *
 * Each concrete CovertChannel subclass is registered under a canonical
 * kebab-case name (e.g. "nonmt-fast-eviction") together with the
 * ChannelConfig the paper's tables use for it, the applicability
 * constraints (SMT / SGX), and a factory. The registry is the single
 * runtime entry point for naming a channel: the ExperimentRunner, the
 * lf_run CLI, and the bench binaries all construct channels through
 * makeChannel() instead of hand-instantiating concrete types.
 *
 * Canonical channel set (paper mapping):
 *   nonmt-{fast,stealthy}-{eviction,misalignment}   Table III (Sec. V-C/D)
 *   mt-{eviction,misalignment}                      Table III (Sec. V-A/B)
 *   slow-switch                                     Table IV (Sec. V-E)
 *   power-{eviction,misalignment}                   Table V  (Sec. VII)
 *   sgx-nonmt-{fast,stealthy}-{eviction,misalignment}
 *   sgx-mt-{eviction,misalignment}                  Table VI (Sec. VIII)
 */

#ifndef LF_CORE_CHANNEL_REGISTRY_HH
#define LF_CORE_CHANNEL_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/channel.hh"
#include "core/power_channels.hh"
#include "sgx/sgx_channels.hh"

namespace lf {

/** Family-specific knobs that sit outside ChannelConfig. Entries carry
 *  per-channel defaults; callers only override what they sweep. */
struct ChannelExtras
{
    PowerChannelConfig power;  //!< power-* channels only.
    SgxConfig sgx;             //!< sgx-* channels only.
};

/** Registry metadata for one canonical channel name. */
struct ChannelInfo
{
    std::string name;         //!< Canonical kebab-case key.
    std::string description;  //!< One-line paper mapping.
    bool requiresSmt = false; //!< MT channels: needs an SMT model.
    bool requiresSgx = false; //!< SGX channels: needs SGX support.
    bool powerObservable = false; //!< Observable is watts, not cycles.
    ChannelConfig defaultConfig;  //!< Paper-table setting.
    ChannelExtras defaultExtras;  //!< Paper-table power/SGX setting.
};

using ChannelFactory = std::function<std::unique_ptr<CovertChannel>(
    Core &, const ChannelConfig &, const ChannelExtras &)>;

/**
 * The process-wide channel registry. Built-in channels are registered
 * on first access; additional channels may be registered at runtime
 * (e.g. by experiments linking their own subclasses).
 */
class ChannelRegistry
{
  public:
    static ChannelRegistry &instance();

    /** Register a channel; fatal on duplicate names. */
    void registerChannel(ChannelInfo info, ChannelFactory factory);

    bool has(const std::string &name) const;

    /** Metadata for @p name; fatal if unknown. */
    const ChannelInfo &info(const std::string &name) const;

    /** All canonical names, in documented (paper-table) order. */
    std::vector<std::string> names() const;

    /** Construct @p name bound to @p core; fatal if unknown. */
    std::unique_ptr<CovertChannel> make(const std::string &name,
                                        Core &core,
                                        const ChannelConfig &cfg,
                                        const ChannelExtras &extras) const;

  private:
    ChannelRegistry();

    struct Entry
    {
        ChannelInfo info;
        ChannelFactory factory;
    };
    std::vector<Entry> entries_;

    const Entry *find(const std::string &name) const;
};

/** @name Convenience wrappers around ChannelRegistry::instance() */
/// @{
std::vector<std::string> allChannelNames();
bool hasChannel(const std::string &name);
const ChannelInfo &channelInfo(const std::string &name);
ChannelConfig defaultChannelConfig(const std::string &name);

std::unique_ptr<CovertChannel> makeChannel(const std::string &name,
                                           Core &core,
                                           const ChannelConfig &cfg);
std::unique_ptr<CovertChannel> makeChannel(const std::string &name,
                                           Core &core,
                                           const ChannelConfig &cfg,
                                           const ChannelExtras &extras);

/** Construct with the channel's own default config and extras. */
std::unique_ptr<CovertChannel> makeChannelWithDefaults(
    const std::string &name, Core &core);

class TrialContext;

/** Construct @p name bound to @p ctx's core, with the context's
 *  resolved config and extras — the one-call path from a bound
 *  TrialContext (resolveTrial()) to a transmit-ready channel. */
std::unique_ptr<CovertChannel> makeChannel(const std::string &name,
                                           TrialContext &ctx);

/** Whether @p name can run on @p model (SMT / SGX constraints). */
bool channelSupportedOn(const std::string &name, const CpuModel &model);
/// @}

/**
 * Apply one "key=value" style override to a config/extras pair. Keys
 * mirror the ChannelConfig field names plus the extras ("powerRounds",
 * "sgxRounds", "sgxMtSteps", "sgxMtMeasPerStep"). The caller
 * range-checks receiverBase/senderBase to [0, 2^64) first.
 * @return false if @p key names no known knob.
 */
bool applyChannelOverride(ChannelConfig &cfg, ChannelExtras &extras,
                          const std::string &key, double value);

/** Keys accepted by applyChannelOverride(), for help text. */
std::vector<std::string> channelOverrideKeys();

} // namespace lf

#endif // LF_CORE_CHANNEL_REGISTRY_HH
