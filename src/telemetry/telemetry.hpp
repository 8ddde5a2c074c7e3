// Structured run telemetry, part 2: phase timing and the per-step flush.
//
// MEGH_TRACE_SCOPE("lspi.update") accumulates wall-clock per named phase
// via common/stopwatch.hpp. When tracing is below kPhases the scope guard
// reads one relaxed atomic bool and never touches the clock, so the null
// configuration costs a load and a branch per scope.
//
// Counters and gauges are not kept here: each run already records them
// (StepSnapshot, SimulationTotals, the policy's stats), and the engine
// builds the step's TraceRecord from that record (step_trace_record in
// sim/simulation.hpp). It hands the record to Telemetry::flush_step, which
// adds this step's phase timings at kPhases, writes it to the sink and
// clears the per-step phase accumulators. Everything is thread-safe: when
// several simulations run at once their records interleave in the sink
// (whole lines stay atomic) and phase timings from all of them merge.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stopwatch.hpp"
#include "telemetry/trace_sink.hpp"

namespace megh {

/// How much the per-step flush emits. kOff emits nothing and disables
/// phase timing (scope guards become a load+branch); kCounters emits the
/// step's counters and gauges only; kPhases adds the per-step phase timing
/// breakdown.
enum class TraceLevel { kOff = 0, kCounters = 1, kPhases = 2 };

/// Parse "off" | "counters" | "phases" (throws ConfigError otherwise).
TraceLevel parse_trace_level(const std::string& name);
const char* trace_level_name(TraceLevel level);

class Telemetry {
 public:
  /// The process-wide phase timer and sink.
  static Telemetry& instance();

  /// Install a sink and level. A null `sink` reverts to the NullTraceSink.
  /// The previous sink is destroyed (flushing it if it buffered).
  void configure(std::unique_ptr<TraceSink> sink, TraceLevel level);
  TraceLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// True when MEGH_TRACE_SCOPE guards should read the clock.
  bool timing_enabled() const {
    return timing_enabled_.load(std::memory_order_relaxed);
  }

  /// Accumulate `ms` into phase `name` for the current step. Normally
  /// called by ScopedPhase, not directly.
  void record_phase(const char* name, double ms);

  /// The per-step flush hook: add this step's phase timings to `record`
  /// (at kPhases), write it to the sink and clear the per-step phase
  /// accumulators. No-op at TraceLevel::kOff.
  void flush_step(TraceRecord record);

  /// Clear every phase accumulator and revert to the null sink at kOff.
  void reset();

 private:
  Telemetry();

  struct PhaseAccum {
    double step_ms = 0.0;
    long long step_count = 0;
  };

  mutable std::mutex mu_;
  std::unique_ptr<TraceSink> sink_;
  std::atomic<TraceLevel> level_{TraceLevel::kOff};
  std::atomic<bool> timing_enabled_{false};
  std::map<std::string, PhaseAccum> phases_;
};

/// RAII phase timer; prefer the MEGH_TRACE_SCOPE macro. `name` must outlive
/// the scope (string literals only).
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name)
      : name_(name), active_(Telemetry::instance().timing_enabled()) {
    if (active_) watch_.reset();
  }

  ~ScopedPhase() {
    if (active_) {
      Telemetry::instance().record_phase(name_, watch_.elapsed_ms());
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  bool active_;
  Stopwatch watch_{Stopwatch::Deferred{}};
};

}  // namespace megh

#define MEGH_TRACE_CONCAT_INNER(a, b) a##b
#define MEGH_TRACE_CONCAT(a, b) MEGH_TRACE_CONCAT_INNER(a, b)

/// Time the enclosing scope under the given phase name, e.g.
///   MEGH_TRACE_SCOPE("lspi.update");
/// Near-zero cost while tracing is off (one relaxed atomic load).
#define MEGH_TRACE_SCOPE(name) \
  ::megh::ScopedPhase MEGH_TRACE_CONCAT(megh_trace_scope_, __LINE__)(name)
