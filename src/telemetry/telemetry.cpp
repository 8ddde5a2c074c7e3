#include "telemetry/telemetry.hpp"

#include "common/error.hpp"

namespace megh {

TraceLevel parse_trace_level(const std::string& name) {
  if (name == "off") return TraceLevel::kOff;
  if (name == "counters") return TraceLevel::kCounters;
  if (name == "phases") return TraceLevel::kPhases;
  throw ConfigError("unknown trace level '" + name +
                    "' (off | counters | phases)");
}

const char* trace_level_name(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff: return "off";
    case TraceLevel::kCounters: return "counters";
    case TraceLevel::kPhases: return "phases";
  }
  return "?";
}

Telemetry::Telemetry() : sink_(std::make_unique<NullTraceSink>()) {}

Telemetry& Telemetry::instance() {
  static Telemetry telemetry;
  return telemetry;
}

void Telemetry::configure(std::unique_ptr<TraceSink> sink, TraceLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) sink_->flush();
  sink_ = sink != nullptr ? std::move(sink)
                          : std::make_unique<NullTraceSink>();
  level_.store(level, std::memory_order_relaxed);
  timing_enabled_.store(level >= TraceLevel::kPhases,
                        std::memory_order_relaxed);
}

void Telemetry::record_phase(const char* name, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  PhaseAccum& accum = phases_[name];
  accum.step_ms += ms;
  ++accum.step_count;
}

void Telemetry::flush_step(TraceRecord record) {
  if (level() == TraceLevel::kOff) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (level_.load(std::memory_order_relaxed) >= TraceLevel::kPhases) {
    for (auto& [name, accum] : phases_) {
      if (accum.step_count == 0) continue;
      record.phase_ms[name] = accum.step_ms;
      record.phase_count[name] = accum.step_count;
      accum.step_ms = 0.0;
      accum.step_count = 0;
    }
  }
  sink_->write(record);
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) sink_->flush();
  sink_ = std::make_unique<NullTraceSink>();
  level_.store(TraceLevel::kOff, std::memory_order_relaxed);
  timing_enabled_.store(false, std::memory_order_relaxed);
  phases_.clear();
}

}  // namespace megh
