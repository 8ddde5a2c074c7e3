// Declarative experiment descriptions. An ExperimentSpec says *what* a
// paper table/figure is — scenario recipe, policy roster, seed plan, the
// reduced/smoke/full scale table, which CSVs to emit and which shape checks
// must hold — and the ExperimentEngine (experiment_engine.hpp) turns it
// into sharded (policy × seed) simulation cells. Bench binaries register
// specs (experiment_registry.hpp); they never hand-roll run loops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"

namespace megh {

// ---------------------------------------------------------------------------
// Scale table: every reduced-vs---full ternary the bench binaries used to
// re-implement lives here as data, plus an optional CI-grade smoke value.
// ---------------------------------------------------------------------------

enum class Scale { kSmoke = 0, kReduced = 1, kFull = 2 };

/// Parse "smoke" | "reduced" | "full" (throws ConfigError otherwise).
Scale parse_scale(const std::string& name);
const char* scale_name(Scale scale);

struct ScaleParam {
  std::string name;
  double reduced = 0.0;
  double full = 0.0;
  /// Value at Scale::kSmoke; unset falls back to `reduced`.
  std::optional<double> smoke;
  std::string help;
};

/// A spec's parameters resolved at one scale (plus any CLI overrides).
struct ScaleValues {
  Scale scale = Scale::kReduced;
  std::map<std::string, double> values;

  bool full() const { return scale == Scale::kFull; }
  double get(const std::string& name) const;
  int get_int(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Expansion: a spec expands to scenarios plus independent simulation cells.
// ---------------------------------------------------------------------------

/// One independent simulation: a policy over a scenario. Cells must be
/// self-contained — seeds are baked in at plan time so results do not
/// depend on execution order or worker count.
struct CellSpec {
  /// Reported policy/variant name (becomes ExperimentResult::policy).
  std::string label;
  /// Sweep key for grouped experiments ("m=400", "temp0=3"); "" otherwise.
  std::string group;
  /// Index into ExperimentPlan::scenarios.
  int scenario = 0;
  /// The deterministic RNG stream this cell runs on (recorded in
  /// results.json; the factories below must already embed it).
  std::uint64_t rng_stream = 0;
  /// Numeric tags (sweep parameters, repeat index) for results.json.
  std::map<std::string, double> params;
  std::function<std::unique_ptr<MigrationPolicy>()> make;
  ExperimentOptions options;
  /// Escape hatch for cells that are not one plain run_experiment call
  /// (e.g. train-then-deploy). Receives the plan's scenarios.
  std::function<ExperimentResult(const std::vector<Scenario>&)> run;
};

struct ExperimentPlan {
  std::vector<Scenario> scenarios;
  std::vector<CellSpec> cells;
};

struct CellResult {
  std::string label;
  std::string group;
  int scenario = 0;
  std::uint64_t rng_stream = 0;
  std::map<std::string, double> params;
  ExperimentResult result;
  /// Cell wall-clock (includes policy construction). Only timing-grade at
  /// --jobs 1; per-step exec_ms is always timed inside the cell.
  double wall_ms = 0.0;
  /// Derived per-cell metrics a spec's post hook computes (convergence
  /// step, stable cost level, ...). Serialized into results.json alongside
  /// the totals when non-empty.
  std::map<std::string, double> derived;
};

// ---------------------------------------------------------------------------
// Shape checks as data: most of the paper's claims are "metric(lhs cell)
// RELATION factor * metric(rhs cell)"; the rest use a custom evaluator.
// ---------------------------------------------------------------------------

struct ExperimentOutput;

enum class CheckRelation { kLess, kLessEq, kGreater };

struct CheckOutcome {
  enum class Status { kPass, kFail, kExpectedAtScale };
  Status status = Status::kFail;
  std::string detail;
};

const char* check_status_name(CheckOutcome::Status status);

struct ShapeCheck {
  std::string description{};
  /// A SimulationTotals field name ("total_cost_usd", "migrations",
  /// "mean_active_hosts", "mean_exec_ms", ...) or a derived metric
  /// ("stable_cost", "convergence_step"). See cell_metric().
  std::string metric{};
  std::string lhs{};  // cell label
  std::string rhs{};  // cell label
  CheckRelation relation = CheckRelation::kLess;
  /// The rhs side is scaled by this factor ("5x fewer" => 0.2).
  double rhs_scale = 1.0;
  /// Downgrade a failure to EXPECTED-AT-SCALE below Scale::kFull (for
  /// claims that only hold at paper scale, e.g. the Fig-6 exec crossover).
  bool expected_at_reduced_scale = false;
  /// When set, the data fields above are ignored.
  std::function<CheckOutcome(const ExperimentOutput&)> custom{};
};

// ---------------------------------------------------------------------------
// The spec itself.
// ---------------------------------------------------------------------------

/// Which pieces of the standard report path run for this experiment.
struct ReportSpec {
  /// Performance table + `<summary_csv>.csv` (Tables 2/3 layout); "" skips.
  std::string summary_csv;
  /// Per-cell per-step series CSVs `<series_csv>_<label>.csv`; "" skips.
  std::string series_csv;
  /// Print a convergence-summary line per cell.
  bool convergence = false;
  /// Context line printed above the convergence summaries.
  std::string convergence_note;
};

struct ExperimentSpec {
  /// Registry key and results.json identifier, e.g. "table2".
  std::string name;
  /// Paper artifact, e.g. "Table 2" ("—" for extensions).
  std::string paper_ref;
  std::string title;
  /// The claim the banner prints and the shape checks encode.
  std::string paper_claim;
  /// Paper-order sort key for --list and --all.
  int order = 0;
  std::vector<ScaleParam> params;
  std::function<ExperimentPlan(const ScaleValues&, std::uint64_t seed)> plan;
  ReportSpec report;
  std::vector<ShapeCheck> checks;
  /// Experiment-specific tables/CSVs (Fig 1/6/7/8 layouts). Artifacts it
  /// writes should be recorded via record_artifact().
  std::function<void(const ExperimentPlan&, ExperimentOutput&)> post;
};

/// Everything one engine run produced, in deterministic cell order.
struct ExperimentOutput {
  const ExperimentSpec* spec = nullptr;
  ScaleValues scale;
  std::uint64_t seed = 0;
  int jobs = 1;
  double wall_ms = 0.0;
  std::vector<CellResult> cells;
  /// description / outcome, in spec.checks order.
  std::vector<std::pair<std::string, CheckOutcome>> check_results;
  /// Files written (CSVs, per-cell traces), relative or absolute paths.
  std::vector<std::string> artifacts;

  /// First cell with this label (and group, when given). Null if absent.
  const CellResult* find(const std::string& label,
                         const std::string& group = "") const;
};

void record_artifact(ExperimentOutput& output, const std::string& path);

/// Evaluate `metric` (totals field or derived) on one cell.
double cell_metric(const CellResult& cell, const std::string& metric);

/// Evaluate one shape check against a finished run.
CheckOutcome evaluate_check(const ShapeCheck& check,
                            const ExperimentOutput& output);

/// Resolve the spec's scale table at `scale`, then apply `overrides` for
/// any keys that name a parameter of this spec (unknown keys are ignored
/// so one --set can span several experiments).
ScaleValues resolve_scale(const ExperimentSpec& spec, Scale scale,
                          const std::map<std::string, double>& overrides = {});

}  // namespace megh
