#include "harness/experiment_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "harness/report.hpp"
#include "sim/simulation.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_sink.hpp"

namespace megh {

namespace {

std::string sanitize_filename(std::string name) {
  for (char& c : name) {
    if (c == ' ' || c == '/' || c == '(' || c == ')' || c == ',') c = '_';
  }
  return name;
}

/// One TraceRecord per simulated step, from the cell's snapshots: the same
/// counters and gauges a live --trace-out run of the cell writes, plus the
/// step's decide time as its `sim.decide` phase, so tools/trace_summary can
/// aggregate any cell after the fact.
void write_cell_trace(const std::string& dir, const ExperimentSpec& spec,
                      std::size_t index, const CellResult& cell,
                      ExperimentOutput& output) {
  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) /
       strf("%s_cell%03zu_%s.jsonl", spec.name.c_str(), index,
            sanitize_filename(cell.label).c_str()))
          .string();
  JsonlTraceSink sink(path);
  SimulationTotals totals;
  for (const StepSnapshot& step : cell.result.sim.steps) {
    totals.add_step(step);
    TraceRecord record = step_trace_record(step, totals);
    record.phase_ms["sim.decide"] = step.exec_ms;
    record.phase_count["sim.decide"] = 1;
    sink.write(record);
  }
  sink.flush();
  record_artifact(output, path);
}

}  // namespace

ExperimentOutput run_experiment_spec(const ExperimentSpec& spec,
                                     const EngineConfig& config) {
  MEGH_REQUIRE(spec.plan != nullptr,
               "experiment '" + spec.name + "' has no plan function");
  ExperimentOutput output;
  output.spec = &spec;
  output.seed = config.seed;
  output.scale = resolve_scale(spec, config.scale, config.scale_overrides);

  const Stopwatch total;
  const ExperimentPlan plan = spec.plan(output.scale, config.seed);
  const std::size_t n = plan.cells.size();
  int jobs = config.jobs == 0 ? default_parallelism(n) : config.jobs;
  if (n > 0) jobs = std::min(jobs, static_cast<int>(n));
  output.jobs = std::max(jobs, 1);

  if (!config.quiet) {
    print_banner(spec.title, spec.paper_claim);
    std::string params;
    for (const auto& [name, value] : output.scale.values) {
      params += strf("%s%s=%g", params.empty() ? "" : ", ", name.c_str(),
                     value);
    }
    std::printf("configuration: %s [%s scale%s], seed %llu, %zu cells x "
                "%d jobs%s\n",
                params.empty() ? "(no parameters)" : params.c_str(),
                scale_name(output.scale.scale),
                output.scale.full() ? "" : "; --full for paper",
                static_cast<unsigned long long>(config.seed), n, output.jobs,
                output.jobs > 1 ? " (timing-grade needs --jobs 1)" : "");
  }

  // ---- Shard the cells. Every cell writes only its own slot, so results
  // keep plan order regardless of scheduling.
  output.cells.resize(n);
  ThreadPool(output.jobs).run(
      n,
      [&](std::size_t i) {
        MEGH_TRACE_SCOPE("engine.cell");
        const CellSpec& cell = plan.cells[i];
        const Stopwatch watch;
        ExperimentResult result;
        if (cell.run) {
          result = cell.run(plan.scenarios);
        } else {
          MEGH_REQUIRE(cell.make != nullptr,
                       "cell '" + cell.label + "' has neither make nor run");
          MEGH_REQUIRE(cell.scenario >= 0 &&
                           static_cast<std::size_t>(cell.scenario) <
                               plan.scenarios.size(),
                       "cell '" + cell.label + "' references scenario " +
                           std::to_string(cell.scenario));
          auto policy = cell.make();
          result = run_experiment(
              plan.scenarios[static_cast<std::size_t>(cell.scenario)],
              *policy, cell.options);
        }
        if (!cell.label.empty()) result.policy = cell.label;
        CellResult& out = output.cells[i];
        out.label = cell.label.empty() ? result.policy : cell.label;
        out.group = cell.group;
        out.scenario = cell.scenario;
        out.rng_stream = cell.rng_stream;
        out.params = cell.params;
        out.result = std::move(result);
        out.wall_ms = watch.elapsed_ms();
      });

  if (!config.quiet) {
    for (const CellResult& cell : output.cells) {
      std::printf("  %-16s %s%scost %.1f USD, %lld migrations, %.3f ms/step "
                  "(cell %.0f ms)\n",
                  cell.label.c_str(), cell.group.c_str(),
                  cell.group.empty() ? "" : "  ",
                  cell.result.sim.totals.total_cost_usd,
                  cell.result.sim.totals.migrations,
                  cell.result.sim.totals.mean_exec_ms, cell.wall_ms);
    }
  }

  if (!config.cell_trace_dir.empty()) {
    for (std::size_t i = 0; i < output.cells.size(); ++i) {
      write_cell_trace(config.cell_trace_dir, spec, i, output.cells[i],
                       output);
    }
  }

  // ---- One structured report path for every experiment.
  std::vector<ExperimentResult> results;
  results.reserve(output.cells.size());
  for (const CellResult& cell : output.cells) results.push_back(cell.result);

  if (!spec.report.summary_csv.empty()) {
    if (!config.quiet) {
      print_performance_table(spec.title, results, spec.report.summary_csv);
    } else {
      write_performance_csv(results, spec.report.summary_csv);
    }
    record_artifact(output,
                    (bench_output_dir() / (spec.report.summary_csv + ".csv"))
                        .string());
  }
  if (!spec.report.series_csv.empty()) {
    write_series_csvs(results, spec.report.series_csv);
    for (const CellResult& cell : output.cells) {
      std::string policy = cell.label;
      std::replace(policy.begin(), policy.end(), ' ', '_');
      record_artifact(output, (bench_output_dir() /
                               (spec.report.series_csv + "_" + policy + ".csv"))
                                  .string());
    }
  }
  if (spec.report.convergence && !config.quiet) {
    std::printf("\n%s\n", spec.report.convergence_note.empty()
                              ? "convergence:"
                              : spec.report.convergence_note.c_str());
    for (const ExperimentResult& r : results) {
      std::printf("  %s\n", convergence_summary(r).c_str());
    }
  }

  if (spec.post) spec.post(plan, output);

  for (const ShapeCheck& check : spec.checks) {
    output.check_results.emplace_back(check.description,
                                      evaluate_check(check, output));
  }
  if (!config.quiet && !output.check_results.empty()) {
    std::printf("\nshape checks:\n");
    for (const auto& [description, outcome] : output.check_results) {
      std::printf("  %s: %s (%s)\n", description.c_str(),
                  check_status_name(outcome.status), outcome.detail.c_str());
    }
  }

  output.wall_ms = total.elapsed_ms();
  return output;
}

}  // namespace megh
