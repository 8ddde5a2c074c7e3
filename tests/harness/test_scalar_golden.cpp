// Reproducibility pin for the learner kernels: a fig2 smoke run must
// reproduce the committed decision CSVs bit for bit. The kernels have one
// scalar path with a fixed operation order and libm exp, so these goldens
// pin decisions on every host, whatever vector extensions its CPU has. The
// per-step exec_ms column is wall-clock and exempt; every other column is
// compared as exact text.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/mmt_policy.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment_engine.hpp"
#include "harness/experiment_spec.hpp"

namespace megh {
namespace {

/// The fig2 configuration the goldens were recorded at (the bench spec's
/// smoke scale). Pinned here independently of the live bench spec: the
/// goldens belong to *this* scenario, whatever the bench later scales to.
ExperimentSpec golden_fig2_spec() {
  ExperimentSpec spec;
  spec.name = "scalar_golden_fig2";
  spec.paper_ref = "Figure 2";
  spec.title = "scalar-golden fig2 reproduction";
  spec.paper_claim = "decisions reproduce the committed goldens exactly";
  spec.params = {
      {"hosts", 24, 24, 24, "PM count"},
      {"vms", 36, 36, 36, "VM count"},
      {"steps", 60, 60, 60, "5-minute steps"},
  };
  spec.plan = [](const ScaleValues& scale, std::uint64_t seed) {
    ExperimentPlan plan;
    plan.scenarios.push_back(make_planetlab_scenario(
        scale.get_int("hosts"), scale.get_int("vms"), scale.get_int("steps"),
        seed));
    {
      CellSpec thr;
      thr.label = "THR-MMT";
      thr.rng_stream = seed;
      thr.make = [seed] { return make_thr_mmt(0.7, seed); };
      plan.cells.push_back(std::move(thr));
    }
    {
      CellSpec megh;
      megh.label = "Megh";
      megh.rng_stream = seed;
      megh.make = [seed] {
        MeghConfig config;
        config.seed = seed;
        return std::make_unique<MeghPolicy>(config);
      };
      megh.options.max_migration_fraction = 0.02;
      plan.cells.push_back(std::move(megh));
    }
    return plan;
  };
  spec.report.series_csv = "fig2";
  return spec;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Strip column `drop` (0-based) from one CSV line.
std::string without_column(const std::string& line, std::size_t drop) {
  std::stringstream in(line);
  std::string field, out;
  std::size_t c = 0;
  bool first = true;
  while (std::getline(in, field, ',')) {
    if (c++ == drop) continue;
    if (!first) out += ',';
    out += field;
    first = false;
  }
  return out;
}

TEST(ScalarGolden, ForcedScalarFig2DecisionsAreBitIdentical) {
  const std::filesystem::path golden_dir =
      std::filesystem::path(MEGH_TEST_DATA_DIR) / "scalar_golden";
  const std::filesystem::path out_dir =
      std::filesystem::path(::testing::TempDir()) / "scalar_golden_out";
  std::filesystem::create_directories(out_dir);

  // The series writer targets bench_output_dir(); point it at the sandbox
  // for the duration of the run.
  const char* prev = std::getenv("MEGH_BENCH_OUT");
  const std::string prev_value = prev ? prev : "";
  ASSERT_EQ(0, setenv("MEGH_BENCH_OUT", out_dir.c_str(), 1));

  EngineConfig config;
  config.scale = Scale::kSmoke;
  config.seed = 42;
  config.jobs = 1;
  config.quiet = true;
  const ExperimentOutput output =
      run_experiment_spec(golden_fig2_spec(), config);

  if (prev) {
    setenv("MEGH_BENCH_OUT", prev_value.c_str(), 1);
  } else {
    unsetenv("MEGH_BENCH_OUT");
  }

  ASSERT_EQ(2u, output.cells.size());
  for (const char* name : {"fig2_Megh.csv", "fig2_THR-MMT.csv"}) {
    const std::vector<std::string> got = read_lines(out_dir / name);
    const std::vector<std::string> want = read_lines(golden_dir / name);
    ASSERT_FALSE(want.empty()) << name;
    ASSERT_EQ(want.size(), got.size()) << name;

    // Locate the exec_ms column from the golden header (robust to column
    // reordering in future series changes).
    std::size_t exec_col = 0;
    {
      std::stringstream in(want[0]);
      std::string field;
      std::size_t c = 0;
      while (std::getline(in, field, ',')) {
        if (field == "exec_ms") exec_col = c;
        ++c;
      }
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(without_column(want[i], exec_col),
                without_column(got[i], exec_col))
          << name << " line " << i + 1;
    }
  }
}

}  // namespace
}  // namespace megh
