#include "baselines/detectors.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace megh {
namespace {

std::vector<double> constant_history(int n, double v) {
  return std::vector<double>(static_cast<std::size_t>(n), v);
}

TEST(DetectorNamesTest, AllFive) {
  EXPECT_EQ(detector_name(DetectorKind::kThr), "THR");
  EXPECT_EQ(detector_name(DetectorKind::kIqr), "IQR");
  EXPECT_EQ(detector_name(DetectorKind::kMad), "MAD");
  EXPECT_EQ(detector_name(DetectorKind::kLr), "LR");
  EXPECT_EQ(detector_name(DetectorKind::kLrr), "LRR");
}

TEST(ThrDetectorTest, FixedThreshold) {
  const auto d = make_detector(DetectorKind::kThr, 0.7);
  EXPECT_FALSE(d->overloaded(constant_history(5, 0.69)));
  EXPECT_TRUE(d->overloaded(constant_history(5, 0.71)));
  EXPECT_DOUBLE_EQ(d->threshold(constant_history(5, 0.5)), 0.7);
}

TEST(IqrDetectorTest, LowVarianceHistoryRaisesThreshold) {
  const auto d = make_detector(DetectorKind::kIqr, 0.7);
  // Constant history: IQR = 0 → threshold 1.0 → 0.95 is NOT overloaded.
  auto history = constant_history(20, 0.5);
  history.back() = 0.95;
  EXPECT_FALSE(d->overloaded(history));
  EXPECT_NEAR(d->threshold(history), 1.0, 0.1);
}

TEST(IqrDetectorTest, HighVarianceHistoryLowersThreshold) {
  const auto d = make_detector(DetectorKind::kIqr, 0.7);
  // Alternating 0.1 / 0.7: IQR = 0.6 → threshold = 1 − 1.5·0.6 = 0.1.
  std::vector<double> history;
  for (int i = 0; i < 20; ++i) history.push_back(i % 2 ? 0.7 : 0.1);
  EXPECT_NEAR(d->threshold(history), 0.1, 0.05);
  history.push_back(0.5);
  EXPECT_TRUE(d->overloaded(history));
}

TEST(MadDetectorTest, ThresholdFormula) {
  const auto d = make_detector(DetectorKind::kMad, 0.7);
  // Alternating 0.2/0.6: median 0.4, MAD = 0.2 → thr = 1 − 2.5·0.2 = 0.5.
  std::vector<double> history;
  for (int i = 0; i < 20; ++i) history.push_back(i % 2 ? 0.6 : 0.2);
  EXPECT_NEAR(d->threshold(history), 0.5, 0.01);
}

TEST(AdaptiveDetectorTest, FallsBackToThrOnShortHistory) {
  for (const auto kind :
       {DetectorKind::kIqr, DetectorKind::kMad, DetectorKind::kLr,
        DetectorKind::kLrr}) {
    const auto d = make_detector(kind, 0.7);
    EXPECT_TRUE(d->overloaded(constant_history(3, 0.75)))
        << d->name() << " should fall back to THR(0.7)";
    EXPECT_FALSE(d->overloaded(constant_history(3, 0.65))) << d->name();
  }
}

TEST(OlsForecastTest, ExtrapolatesLinearSeries) {
  const std::vector<double> ys{0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_NEAR(ols_forecast(ys), 0.6, 1e-9);
}

TEST(OlsForecastTest, ConstantSeriesPredictsConstant) {
  EXPECT_NEAR(ols_forecast(constant_history(8, 0.4)), 0.4, 1e-9);
}

TEST(RobustForecastTest, IgnoresSingleOutlier) {
  // Linear trend with one big spike near the end (an off-center outlier
  // shifts the OLS forecast; a central one cancels at x = n).
  std::vector<double> ys{0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24,
                         0.95, 0.28};
  const double robust = robust_forecast(ys);
  const double plain = ols_forecast(ys);
  EXPECT_NEAR(robust, 0.30, 0.03);
  EXPECT_GT(std::abs(plain - 0.30), std::abs(robust - 0.30));
}

TEST(LrDetectorTest, PredictedSaturationTriggers) {
  const auto d = make_detector(DetectorKind::kLr, 0.7);
  // Load climbing from idle to a plateau at 0.65 (under THR) over the
  // regression window: the fitted trend forecasts ~0.86, and
  // 1.2 × 0.86 ≥ 1 — LR must fire on the *prediction*.
  const std::vector<double> rising{0.0,  0.0,  0.0,  0.05, 0.25,
                                   0.45, 0.65, 0.65, 0.65, 0.65};
  ASSERT_EQ(static_cast<int>(rising.size()), kRegressionPoints);
  ASSERT_GE(kLrSafety * ols_forecast(rising), 1.0);
  EXPECT_TRUE(d->overloaded(rising));
  // Flat series at the same last value: forecast 0.65, no trigger.
  EXPECT_FALSE(d->overloaded(constant_history(kRegressionPoints, 0.65)));
}

TEST(LrrDetectorTest, OutlierDoesNotTrigger) {
  const auto lr = make_detector(DetectorKind::kLr, 0.7);
  const auto lrr = make_detector(DetectorKind::kLrr, 0.7);
  // Flat low series with a recent towering outlier: plain LR's slope gets
  // dragged up, robust LR should stay calm.
  std::vector<double> history{0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.95,
                              0.2, 0.2};
  EXPECT_FALSE(lrr->overloaded(history));
  (void)lr;  // plain LR may or may not trigger; only LRR is pinned
}

class DetectorSmokeSweep : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(DetectorSmokeSweep, NeverThrowsOnRandomHistories) {
  const auto d = make_detector(GetParam(), 0.7);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> history;
    const int n = 1 + static_cast<int>(rng.index(30));
    for (int i = 0; i < n; ++i) history.push_back(rng.uniform());
    const bool overloaded = d->overloaded(history);
    const double thr = d->threshold(history);
    EXPECT_GE(thr, 0.0);
    EXPECT_LE(thr, 1.0);
    (void)overloaded;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DetectorSmokeSweep,
                         ::testing::Values(DetectorKind::kThr,
                                           DetectorKind::kIqr,
                                           DetectorKind::kMad,
                                           DetectorKind::kLr,
                                           DetectorKind::kLrr));

TEST(DetectorFactoryTest, InvalidParamsRejected) {
  EXPECT_THROW(make_detector(DetectorKind::kThr, 0.0), ConfigError);
  EXPECT_THROW(make_detector(DetectorKind::kLr, 1.5), ConfigError);
}

}  // namespace
}  // namespace megh
