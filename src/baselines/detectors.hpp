// Host overload detection algorithms of the MMT consolidation family
// (Beloglazov & Buyya; the paper's comparators THR/IQR/MAD/LR/LRR-MMT,
// Sec. 2.1).
//
// Each detector decides, from a host's utilization history, whether the
// host is overloaded and a migration should be triggered:
//   THR — fixed utilization threshold (default: the paper's β = 0.7);
//   IQR — adaptive threshold 1 − s·IQR(history), s = 1.5;
//   MAD — adaptive threshold 1 − s·MAD(history), s = 2.5;
//   LR  — least-squares forecast of the next utilization; overloaded when
//         safety·prediction ≥ 1, safety = 1.2;
//   LRR — robust (iteratively reweighted, bisquare) regression variant.
// Adaptive detectors fall back to THR until enough history accumulates.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace megh {

enum class DetectorKind { kThr, kIqr, kMad, kLr, kLrr };

std::string detector_name(DetectorKind kind);

// The adaptive detectors' parameters (Beloglazov & Buyya's values).
inline constexpr double kIqrSafety = 1.5;
inline constexpr double kMadSafety = 2.5;
inline constexpr double kLrSafety = 1.2;
/// Samples an adaptive detector needs before it stops falling back to THR;
/// LR/LRR regress over the most recent this many.
inline constexpr int kRegressionPoints = 10;
static_assert(kRegressionPoints >= 2, "regression needs >= 2 points");

class OverloadDetector {
 public:
  virtual ~OverloadDetector() = default;
  virtual std::string name() const = 0;

  /// Is a host with this utilization history (most recent last, current
  /// value included) overloaded?
  virtual bool overloaded(std::span<const double> history) const = 0;

  /// The utilization level the detector is currently treating as the
  /// overload boundary (used by VM selection to decide how many VMs to
  /// evacuate). For LR/LRR this is the fallback threshold.
  virtual double threshold(std::span<const double> history) const = 0;
};

/// `thr_threshold` is THR's threshold and the adaptive detectors' fallback
/// (the paper's β = 0.7, Sec. 6.1); it must lie in (0, 1].
std::unique_ptr<OverloadDetector> make_detector(DetectorKind kind,
                                                double thr_threshold);

/// Ordinary least-squares fit y = a + b·x over x = 0..n-1; returns the
/// prediction at x = n. Exposed for tests.
double ols_forecast(std::span<const double> ys);

/// Iteratively reweighted least squares with bisquare weights (robust to the
/// utilization spikes PlanetLab workloads exhibit); prediction at x = n.
double robust_forecast(std::span<const double> ys, int iterations = 5);

}  // namespace megh
