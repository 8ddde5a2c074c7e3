#include "sim/migration_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace megh {

double effective_dirty_rate(double utilization, const PreCopyConfig& config) {
  const double u = std::clamp(utilization, 0.0, 1.0);
  return config.dirty_rate_mb_per_s *
         (kIdleDirtyFraction + (1.0 - kIdleDirtyFraction) * u);
}

MigrationEstimate precopy_migration(double ram_mb, double bw_mbps,
                                    double dirty_rate_mb_per_s) {
  MEGH_REQUIRE(ram_mb > 0 && bw_mbps > 0,
               "precopy_migration requires positive RAM and bandwidth");
  MEGH_REQUIRE(dirty_rate_mb_per_s >= 0, "dirty rate must be >= 0");

  const double bw_mb_per_s = bw_mbps / 8.0;  // Mbit/s → MB/s
  MigrationEstimate est;

  // Non-converging guest: each round's dirty set is no smaller than the
  // last. One full copy, then pause and move the dirty set.
  const double ratio = dirty_rate_mb_per_s / bw_mb_per_s;
  double to_copy = ram_mb;
  for (int round = 0; round < kPreCopyMaxRounds; ++round) {
    const double round_s = to_copy / bw_mb_per_s;
    est.copy_s += round_s;
    ++est.rounds;
    const double dirtied =
        std::min(ram_mb, dirty_rate_mb_per_s * round_s);
    if (dirtied <= kStopCopyThresholdMb) {
      est.converged = true;
      est.downtime_s = dirtied / bw_mb_per_s;
      return est;
    }
    to_copy = dirtied;
    if (ratio >= 1.0) break;  // the set cannot shrink; give up now
  }
  // Rounds exhausted (or hopeless): pause and copy the current dirty set.
  est.downtime_s = to_copy / bw_mb_per_s;
  return est;
}

}  // namespace megh
