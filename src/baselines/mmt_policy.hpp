// The MMT dynamic-consolidation heuristics (Beloglazov & Buyya), the
// paper's primary comparators: THR-MMT, IQR-MMT, MAD-MMT, LR-MMT, LRR-MMT
// (Sec. 2.1, Tables 2/3).
//
// Per step:
//   1. Overload phase — every host flagged by the overload detector has VMs
//      selected (Minimum Migration Time order) until its utilization would
//      drop under the detector threshold; each selected VM is placed by
//      Power-Aware Best-Fit Decreasing on a non-overloaded host.
//   2. Underload phase — active hosts are visited from least utilized
//      upward; if *all* of a host's VMs can be placed elsewhere (without
//      overloading the targets), the host is evacuated and put to sleep.
//
// Being greedy heuristics, they migrate every time a threshold trips —
// which is exactly the behaviour the paper measures: hundreds of thousands
// of migrations over a week versus Megh's thousands.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "baselines/detectors.hpp"
#include "baselines/vm_selection.hpp"
#include "sim/policy.hpp"

namespace megh {

struct MmtConfig {
  DetectorKind detector = DetectorKind::kThr;
  /// THR's threshold and the adaptive detectors' fallback (the paper's β).
  double thr_threshold = 0.7;
  VmSelectionKind selection = VmSelectionKind::kMinMigrationTime;
  std::uint64_t seed = 7;
};

class MmtPolicy : public MigrationPolicy {
 public:
  /// Utilization samples kept per host for the detectors.
  static constexpr int kHistoryWindow = 30;
  /// Post-placement utilization ceiling for migration targets.
  static constexpr double kPlacementCeiling = 0.7;
  /// Hosts below this utilization are underload-evacuation candidates.
  static constexpr double kUnderloadThreshold = 0.3;
  /// Upper bound on hosts evacuated by the underload phase per step, as a
  /// fraction of the host count (at least one). Unbounded evacuation
  /// ping-pongs when the fleet is RAM-bound (packed hosts never exceed the
  /// CPU underload threshold, so every host stays a candidate forever); 5%
  /// per step reproduces the paper's MMT churn rate (~15% of VMs migrated
  /// per step).
  static constexpr double kUnderloadEvacuationFraction = 0.05;

  explicit MmtPolicy(const MmtConfig& config = {});

  std::string name() const override;
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  /// Appends this step's plan to `out`. The PABFD placement scans fan out
  /// over obs.exec when the engine passes one; the plan is bit-identical
  /// either way (the fold's merge is exact).
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void stats(PolicyStats& out) const override;

 private:
  MmtConfig config_;
  std::unique_ptr<OverloadDetector> detector_;
  Rng rng_;
  /// Rolling utilization history per host (most recent last).
  std::vector<std::deque<double>> history_;
  long long overload_migrations_ = 0;
  long long underload_migrations_ = 0;
};

/// Convenience factories for the paper's five variants.
std::unique_ptr<MmtPolicy> make_thr_mmt(double threshold = 0.7,
                                        std::uint64_t seed = 7);
std::unique_ptr<MmtPolicy> make_iqr_mmt(std::uint64_t seed = 7);
std::unique_ptr<MmtPolicy> make_mad_mmt(std::uint64_t seed = 7);
std::unique_ptr<MmtPolicy> make_lr_mmt(std::uint64_t seed = 7);
std::unique_ptr<MmtPolicy> make_lrr_mmt(std::uint64_t seed = 7);

}  // namespace megh
