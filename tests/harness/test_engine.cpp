// Tier-1 coverage for the declarative experiment engine: plan expansion is
// stable, the registry validates specs, scale tables resolve per tier with
// --set overrides, shape checks evaluate as data, and — the core
// determinism contract — decision outputs are bit-identical across --jobs.
#include "harness/experiment_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "baselines/mmt_policy.hpp"
#include "common/error.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment_registry.hpp"
#include "harness/results_json.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {
namespace {

/// A small PlanetLab scenario with one heuristic and one learning policy —
/// enough to exercise RNG streams, caps and per-step snapshots.
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "engine_test";
  spec.paper_ref = "—";
  spec.title = "engine test";
  spec.paper_claim = "test";
  spec.params = {
      {"hosts", 16, 64, 8, "PM count"},
      {"vms", 24, 96, 12, "VM count"},
      {"steps", 40, 200, 10, "steps"},
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
  return spec;
}

EngineConfig quiet_config(int jobs) {
  EngineConfig config;
  config.jobs = jobs;
  config.quiet = true;
  return config;
}

TEST(ExperimentEngineTest, DecisionOutputsBitIdenticalAcrossJobs) {
  const ExperimentSpec spec = small_spec();
  const ExperimentOutput serial = run_experiment_spec(spec, quiet_config(1));
  const ExperimentOutput sharded = run_experiment_spec(spec, quiet_config(4));

  ASSERT_EQ(serial.cells.size(), sharded.cells.size());
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_GT(sharded.jobs, 1);
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const auto& a = serial.cells[c];
    const auto& b = sharded.cells[c];
    EXPECT_EQ(a.label, b.label);
    // Totals: every decision-derived quantity matches exactly (exec_ms is
    // wall-clock and exempt — that is why --jobs 1 is timing-grade).
    EXPECT_DOUBLE_EQ(a.result.sim.totals.total_cost_usd,
                     b.result.sim.totals.total_cost_usd);
    EXPECT_DOUBLE_EQ(a.result.sim.totals.sla_cost_usd,
                     b.result.sim.totals.sla_cost_usd);
    EXPECT_EQ(a.result.sim.totals.migrations,
              b.result.sim.totals.migrations);
    EXPECT_DOUBLE_EQ(a.result.sim.totals.mean_active_hosts,
                     b.result.sim.totals.mean_active_hosts);
    // Per-step snapshots, not just the aggregates.
    ASSERT_EQ(a.result.sim.steps.size(), b.result.sim.steps.size());
    for (std::size_t i = 0; i < a.result.sim.steps.size(); ++i) {
      EXPECT_EQ(a.result.sim.steps[i].migrations,
                b.result.sim.steps[i].migrations);
      EXPECT_EQ(a.result.sim.steps[i].active_hosts,
                b.result.sim.steps[i].active_hosts);
      EXPECT_DOUBLE_EQ(a.result.sim.steps[i].step_cost_usd,
                       b.result.sim.steps[i].step_cost_usd);
    }
  }
}

TEST(ExperimentEngineTest, SnapshotStatsRoundTripThroughEngineCopies) {
  // StepSnapshot's stats table is a trivially-copyable flat record keyed by
  // interned StatKeys; this asserts the values survive the engine's result
  // copies and stay readable through every accessor flavour.
  const ExperimentSpec spec = small_spec();
  const ExperimentOutput output = run_experiment_spec(spec, quiet_config(1));
  ASSERT_EQ(output.cells.size(), 2u);

  const auto& megh_steps = output.cells[1].result.sim.steps;
  ASSERT_FALSE(megh_steps.empty());
  const PolicyStats& stats = megh_steps.back().policy_stats;
  // Name-based compatibility accessors (std::map idiom).
  EXPECT_EQ(stats.count("temperature"), 1);
  EXPECT_EQ(stats.count("no_such_stat"), 0);
  EXPECT_GT(stats.at("temperature"), 0.0);
  EXPECT_THROW(stats.at("no_such_stat"), ConfigError);
  // Key-based access agrees with name-based access entry for entry.
  for (int i = 0; i < stats.size(); ++i) {
    const StatKey key = stats.key(i);
    ASSERT_TRUE(key.valid());
    const double* by_key = stats.find(key);
    ASSERT_NE(by_key, nullptr);
    EXPECT_EQ(*by_key, stats.value(i));
    EXPECT_EQ(stats.at(key.name()), stats.value(i));
  }
  // series() resolves policy stats through the same interned keys.
  const auto series = output.cells[1].result.sim.series("qtable_nnz");
  ASSERT_EQ(series.size(), megh_steps.size());
  EXPECT_EQ(series.back(), megh_steps.back().policy_stats.at("qtable_nnz"));
  // The heuristic cell carries its own counters, not Megh's.
  const PolicyStats& mmt = output.cells[0].result.sim.steps.back().policy_stats;
  EXPECT_EQ(mmt.count("overload_migrations"), 1);
  EXPECT_EQ(mmt.count("qtable_nnz"), 0);
}

/// Keeps every live trace record in memory.
class VectorSink final : public TraceSink {
 public:
  explicit VectorSink(std::vector<TraceRecord>* out) : out_(out) {}
  void write(const TraceRecord& record) override { out_->push_back(record); }

 private:
  std::vector<TraceRecord>* out_;
};

TEST(ExperimentEngineTest, CellTracesEqualTheLiveTrace) {
  // The engine's per-cell traces and a live kCounters trace of the same
  // cells carry the same counters and gauges, step for step; the cell
  // trace adds the step's decide time as its sim.decide phase.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "megh_engine_cell_traces";
  std::filesystem::remove_all(dir);
  std::vector<TraceRecord> live;
  Telemetry::instance().configure(std::make_unique<VectorSink>(&live),
                                  TraceLevel::kCounters);
  EngineConfig config = quiet_config(1);  // cells run in plan order
  config.cell_trace_dir = dir.string();
  const ExperimentOutput output = run_experiment_spec(small_spec(), config);
  Telemetry::instance().reset();

  std::size_t at = 0;
  for (std::size_t c = 0; c < output.cells.size(); ++c) {
    const CellResult& cell = output.cells[c];
    const std::filesystem::path path = output.artifacts.at(c);
    ASSERT_EQ(path.extension(), ".jsonl");
    std::ifstream in(path);
    std::string line;
    std::size_t step = 0;
    while (std::getline(in, line)) {
      ASSERT_LT(at, live.size());
      const TraceRecord record = parse_trace_line(line);
      EXPECT_EQ(record.step, live[at].step) << cell.label;
      EXPECT_EQ(record.counters, live[at].counters) << cell.label;
      EXPECT_EQ(record.gauges, live[at].gauges) << cell.label;
      EXPECT_EQ(record.phase_ms.at("sim.decide"),
                cell.result.sim.steps.at(step).exec_ms);
      ++at;
      ++step;
    }
    EXPECT_EQ(step, cell.result.sim.steps.size()) << cell.label;
    EXPECT_GT(live[at - 1].counters.at("sim.migrations_applied"), 0)
        << cell.label;
  }
  EXPECT_EQ(at, live.size());
  std::filesystem::remove_all(dir);
}

TEST(ExperimentEngineTest, PlanExpansionIsStable) {
  const ExperimentSpec spec = small_spec();
  const ScaleValues scale = resolve_scale(spec, Scale::kReduced);
  const ExperimentPlan first = spec.plan(scale, 42);
  const ExperimentPlan second = spec.plan(scale, 42);
  ASSERT_EQ(first.cells.size(), second.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].label, second.cells[i].label);
    EXPECT_EQ(first.cells[i].rng_stream, second.cells[i].rng_stream);
    EXPECT_EQ(first.cells[i].scenario, second.cells[i].scenario);
  }
}

TEST(ExperimentEngineTest, CellsKeepPlanOrderAndMetadata) {
  const ExperimentSpec spec = small_spec();
  const ExperimentOutput output = run_experiment_spec(spec, quiet_config(2));
  ASSERT_EQ(output.cells.size(), 2u);
  EXPECT_EQ(output.cells[0].label, "THR-MMT");
  EXPECT_EQ(output.cells[1].label, "Megh");
  EXPECT_EQ(output.cells[0].rng_stream, 42u);
  EXPECT_EQ(output.scale.get_int("hosts"), 16);
  EXPECT_NE(output.find("Megh"), nullptr);
  EXPECT_EQ(output.find("nonexistent"), nullptr);
}

TEST(ResolveScaleTest, TiersAndOverrides) {
  const ExperimentSpec spec = small_spec();
  EXPECT_EQ(resolve_scale(spec, Scale::kReduced).get_int("hosts"), 16);
  EXPECT_EQ(resolve_scale(spec, Scale::kFull).get_int("hosts"), 64);
  EXPECT_EQ(resolve_scale(spec, Scale::kSmoke).get_int("hosts"), 8);
  EXPECT_TRUE(resolve_scale(spec, Scale::kFull).full());

  // Overrides beat the tier; unknown keys are ignored so one --set can
  // span several experiments.
  const ScaleValues overridden =
      resolve_scale(spec, Scale::kReduced, {{"hosts", 5}, {"unknown", 9}});
  EXPECT_EQ(overridden.get_int("hosts"), 5);
  EXPECT_EQ(overridden.get_int("vms"), 24);
  EXPECT_THROW(overridden.get("unknown"), ConfigError);
}

TEST(ResolveScaleTest, SmokeFallsBackToReduced) {
  ExperimentSpec spec;
  spec.params = {{"steps", 30, 100, std::nullopt, "no smoke tier"}};
  EXPECT_EQ(resolve_scale(spec, Scale::kSmoke).get_int("steps"), 30);
}

TEST(ExperimentRegistryTest, ValidatesSpecs) {
  ExperimentRegistry& registry = ExperimentRegistry::instance();
  const std::size_t before = registry.size();

  ExperimentSpec nameless = small_spec();
  nameless.name = "";
  EXPECT_THROW(registry.add(std::move(nameless)), ConfigError);

  ExperimentSpec planless = small_spec();
  planless.name = "registry_test_planless";
  planless.plan = nullptr;
  EXPECT_THROW(registry.add(std::move(planless)), ConfigError);

  ExperimentSpec ok = small_spec();
  ok.name = "registry_test_a";
  ok.order = 2;
  registry.add(std::move(ok));

  ExperimentSpec duplicate = small_spec();
  duplicate.name = "registry_test_a";
  EXPECT_THROW(registry.add(std::move(duplicate)), ConfigError);

  ExperimentSpec earlier = small_spec();
  earlier.name = "registry_test_b";
  earlier.order = 1;
  registry.add(std::move(earlier));

  EXPECT_EQ(registry.size(), before + 2);
  EXPECT_NE(registry.find("registry_test_a"), nullptr);
  EXPECT_EQ(registry.find("registry_test_missing"), nullptr);

  // all() sorts by (order, name), independent of registration order.
  const auto all = registry.all();
  std::size_t pos_a = 0, pos_b = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i]->name == "registry_test_a") pos_a = i;
    if (all[i]->name == "registry_test_b") pos_b = i;
  }
  EXPECT_LT(pos_b, pos_a);
}

TEST(ShapeCheckTest, DataChecksEvaluateRelationsAndScale) {
  ExperimentOutput output;
  output.scale.scale = Scale::kReduced;
  CellResult megh;
  megh.label = "Megh";
  megh.result.sim.totals.total_cost_usd = 90.0;
  megh.result.sim.totals.migrations = 100;
  CellResult thr;
  thr.label = "THR";
  thr.result.sim.totals.total_cost_usd = 100.0;
  thr.result.sim.totals.migrations = 1000;
  output.cells.push_back(megh);
  output.cells.push_back(thr);

  ShapeCheck cheaper{.description = "cheaper",
                     .metric = "total_cost_usd",
                     .lhs = "Megh",
                     .rhs = "THR",
                     .relation = CheckRelation::kLess};
  EXPECT_EQ(evaluate_check(cheaper, output).status,
            CheckOutcome::Status::kPass);

  // 100 < 0.05 x 1000 fails; with the expected_at_reduced_scale escape the
  // failure downgrades below full scale but stays FAIL at paper scale.
  ShapeCheck migrations{.description = "far fewer",
                        .metric = "migrations",
                        .lhs = "Megh",
                        .rhs = "THR",
                        .relation = CheckRelation::kLess,
                        .rhs_scale = 0.05,
                        .expected_at_reduced_scale = true};
  EXPECT_EQ(evaluate_check(migrations, output).status,
            CheckOutcome::Status::kExpectedAtScale);
  output.scale.scale = Scale::kFull;
  EXPECT_EQ(evaluate_check(migrations, output).status,
            CheckOutcome::Status::kFail);

  ShapeCheck custom{.description = "custom",
                    .custom = [](const ExperimentOutput&) {
                      CheckOutcome outcome;
                      outcome.status = CheckOutcome::Status::kPass;
                      outcome.detail = "custom ran";
                      return outcome;
                    }};
  EXPECT_EQ(evaluate_check(custom, output).detail, "custom ran");

  ShapeCheck unknown{.description = "bad metric",
                     .metric = "not_a_metric",
                     .lhs = "Megh",
                     .rhs = "THR"};
  EXPECT_THROW(evaluate_check(unknown, output), ConfigError);
}

TEST(ResultsJsonTest, SerializesRunAndVerdicts) {
  const ExperimentSpec spec = small_spec();
  ExperimentOutput output = run_experiment_spec(spec, quiet_config(1));
  output.check_results.emplace_back(
      "demo check", CheckOutcome{CheckOutcome::Status::kPass, "ok"});

  BenchRunMetadata metadata;
  metadata.command = "megh_bench --only engine_test";
  metadata.scale = Scale::kReduced;
  metadata.seed = 42;
  metadata.jobs = 1;
  metadata.hardware_concurrency = 4;
  metadata.wall_ms = 12.5;

  const std::string json = results_json_string(metadata, {output});
  EXPECT_NE(json.find("\"schema\": \"megh.bench.results/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"engine_test\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"THR-MMT\""), std::string::npos);
  EXPECT_NE(json.find("\"timing_grade\": true"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"PASS\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 1"), std::string::npos);
}

}  // namespace
}  // namespace megh
