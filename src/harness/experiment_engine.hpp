// The experiment engine: expands an ExperimentSpec into (policy × seed)
// cells, shards them across a ThreadPool, and funnels every
// experiment through one report path — banner, per-cell summary lines,
// performance table + CSVs, per-step series CSVs, convergence summaries,
// shape-check verdicts and optional per-cell JSONL traces.
//
// Determinism: cells carry their seeds from plan time, each simulation owns
// its RNGs, and results land in a pre-sized slot per cell — so decision
// outputs are identical for any --jobs value. Wall-clock metrics are the
// exception: per-step exec_ms is timed inside the cell (faithful but noisy
// under contention), which is why --jobs 1 is the timing-grade mode and
// the worker count is recorded next to every result.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/experiment_spec.hpp"

namespace megh {

struct EngineConfig {
  Scale scale = Scale::kReduced;
  std::uint64_t seed = 42;
  /// Worker threads for the cell shards; 0 = default_parallelism.
  int jobs = 0;
  /// --set overrides applied to the spec's scale table.
  std::map<std::string, double> scale_overrides;
  /// When non-empty: write one per-step JSONL trace per cell here
  /// (readable by tools/trace_summary).
  std::string cell_trace_dir;
  /// Suppress all stdout (tests); results/artifacts are still produced.
  bool quiet = false;
};

/// Run one spec end to end. Throws on configuration errors; shape-check
/// failures are reported in the output, not thrown.
ExperimentOutput run_experiment_spec(const ExperimentSpec& spec,
                                     const EngineConfig& config);

}  // namespace megh
