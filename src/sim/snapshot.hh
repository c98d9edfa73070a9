#ifndef LF_SIM_SNAPSHOT_HH
#define LF_SIM_SNAPSHOT_HH

namespace lf {

/** No-op kept only because perfbench/ still calls it; removed in the
 *  next benchmark change. */
inline void clearWarmSnapshotCache() {}

} // namespace lf

#endif // LF_SIM_SNAPSHOT_HH
