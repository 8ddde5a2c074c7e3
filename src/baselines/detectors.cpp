#include "baselines/detectors.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "metrics/percentile.hpp"

namespace megh {

std::string detector_name(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kThr: return "THR";
    case DetectorKind::kIqr: return "IQR";
    case DetectorKind::kMad: return "MAD";
    case DetectorKind::kLr: return "LR";
    case DetectorKind::kLrr: return "LRR";
  }
  return "?";
}

double ols_forecast(std::span<const double> ys) {
  const int n = static_cast<int>(ys.size());
  MEGH_REQUIRE(n >= 2, "ols_forecast needs at least 2 points");
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    const double x = i;
    const double y = ys[static_cast<std::size_t>(i)];
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return ys.back();
  const double b = (n * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / n;
  return a + b * n;
}

double robust_forecast(std::span<const double> ys, int iterations) {
  const int n = static_cast<int>(ys.size());
  MEGH_REQUIRE(n >= 2, "robust_forecast needs at least 2 points");
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  double a = 0.0, b = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    double sw = 0, swx = 0, swy = 0, swxx = 0, swxy = 0;
    for (int i = 0; i < n; ++i) {
      const double x = i;
      const double y = ys[static_cast<std::size_t>(i)];
      const double wi = w[static_cast<std::size_t>(i)];
      sw += wi;
      swx += wi * x;
      swy += wi * y;
      swxx += wi * x * x;
      swxy += wi * x * y;
    }
    const double denom = sw * swxx - swx * swx;
    if (std::abs(denom) < 1e-12) return ys.back();
    b = (sw * swxy - swx * swy) / denom;
    a = (swy - b * swx) / sw;
    // Bisquare reweighting on residuals.
    std::vector<double> abs_res(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      abs_res[static_cast<std::size_t>(i)] =
          std::abs(ys[static_cast<std::size_t>(i)] - (a + b * i));
    }
    Samples res_samples(abs_res);
    const double s = std::max(res_samples.median() * 1.4826, 1e-9);
    for (int i = 0; i < n; ++i) {
      const double r = abs_res[static_cast<std::size_t>(i)] / (6.0 * s);
      w[static_cast<std::size_t>(i)] =
          r < 1.0 ? (1.0 - r * r) * (1.0 - r * r) : 0.0;
    }
  }
  return a + b * n;
}

namespace {

class ThrDetector final : public OverloadDetector {
 public:
  explicit ThrDetector(double thr_threshold) : thr_threshold_(thr_threshold) {}
  std::string name() const override { return "THR"; }
  bool overloaded(std::span<const double> history) const override {
    MEGH_ASSERT(!history.empty(), "detector needs current utilization");
    return history.back() > thr_threshold_;
  }
  double threshold(std::span<const double>) const override {
    return thr_threshold_;
  }

 private:
  double thr_threshold_;
};

class IqrDetector final : public OverloadDetector {
 public:
  explicit IqrDetector(double thr_threshold) : thr_threshold_(thr_threshold) {}
  std::string name() const override { return "IQR"; }
  bool overloaded(std::span<const double> history) const override {
    MEGH_ASSERT(!history.empty(), "detector needs current utilization");
    return history.back() > threshold(history);
  }
  double threshold(std::span<const double> history) const override {
    if (static_cast<int>(history.size()) < kRegressionPoints) {
      return thr_threshold_;
    }
    Samples s{std::vector<double>(history.begin(), history.end())};
    return std::max(0.0, 1.0 - kIqrSafety * s.iqr());
  }

 private:
  double thr_threshold_;
};

class MadDetector final : public OverloadDetector {
 public:
  explicit MadDetector(double thr_threshold) : thr_threshold_(thr_threshold) {}
  std::string name() const override { return "MAD"; }
  bool overloaded(std::span<const double> history) const override {
    MEGH_ASSERT(!history.empty(), "detector needs current utilization");
    return history.back() > threshold(history);
  }
  double threshold(std::span<const double> history) const override {
    if (static_cast<int>(history.size()) < kRegressionPoints) {
      return thr_threshold_;
    }
    Samples s{std::vector<double>(history.begin(), history.end())};
    return std::max(0.0, 1.0 - kMadSafety * s.mad());
  }

 private:
  double thr_threshold_;
};

class LrDetector : public OverloadDetector {
 public:
  LrDetector(double thr_threshold, bool robust)
      : thr_threshold_(thr_threshold), robust_(robust) {}
  std::string name() const override { return robust_ ? "LRR" : "LR"; }
  bool overloaded(std::span<const double> history) const override {
    MEGH_ASSERT(!history.empty(), "detector needs current utilization");
    if (static_cast<int>(history.size()) < kRegressionPoints) {
      return history.back() > thr_threshold_;
    }
    const auto tail = history.last(kRegressionPoints);
    const double predicted =
        robust_ ? robust_forecast(tail) : ols_forecast(tail);
    return kLrSafety * predicted >= 1.0 || history.back() > thr_threshold_;
  }
  double threshold(std::span<const double>) const override {
    return thr_threshold_;
  }

 private:
  double thr_threshold_;
  bool robust_;
};

}  // namespace

std::unique_ptr<OverloadDetector> make_detector(DetectorKind kind,
                                                double thr_threshold) {
  MEGH_REQUIRE(thr_threshold > 0.0 && thr_threshold <= 1.0,
               "THR threshold must lie in (0, 1]");
  switch (kind) {
    case DetectorKind::kThr:
      return std::make_unique<ThrDetector>(thr_threshold);
    case DetectorKind::kIqr:
      return std::make_unique<IqrDetector>(thr_threshold);
    case DetectorKind::kMad:
      return std::make_unique<MadDetector>(thr_threshold);
    case DetectorKind::kLr:
      return std::make_unique<LrDetector>(thr_threshold, /*robust=*/false);
    case DetectorKind::kLrr:
      return std::make_unique<LrDetector>(thr_threshold, /*robust=*/true);
  }
  throw ConfigError("unknown detector kind");
}

}  // namespace megh
