// Structured run telemetry, part 1: the record format and where it goes.
//
// A TraceRecord is one step's worth of observability data: the phase
// timings accumulated by MEGH_TRACE_SCOPE since the previous flush (see
// telemetry/telemetry.hpp), plus the run's counters and gauges, which the
// engine builds from its own per-step record (step_trace_record in
// sim/simulation.hpp). The engine emits one record per simulated interval,
// so a trace file is a step-indexed series that can attribute per-step
// wall-clock to candidate generation vs Sherman–Morrison updates vs
// migration mechanics — the breakdown behind the paper's O(#migrations)
// per-step cost claim (Sec. 5.2, Figs. 6–7).
//
// Sinks are deliberately dumb: write a record, optionally flush. The JSONL
// sink writes one self-contained JSON object per line (schema documented in
// docs/OBSERVABILITY.md); the null sink drops everything and is the default
// so instrumented code costs nothing when tracing is off.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <string_view>

namespace megh {

/// One step's telemetry. `counters` carry values cumulative over the run
/// (monotone non-decreasing across its records); `gauges` are this step's
/// values; `phase_ms` / `phase_count` cover only the interval since the
/// previous flush.
struct TraceRecord {
  int step = 0;
  std::map<std::string, double> phase_ms;
  std::map<std::string, long long> phase_count;
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceRecord& record) = 0;
  virtual void flush() {}
};

/// Swallows every record. Kept as an explicit class (rather than "no sink")
/// so instrumentation never needs a null check on the hot path.
class NullTraceSink final : public TraceSink {
 public:
  void write(const TraceRecord&) override {}
};

/// One JSON object per line, append-only. Throws IoError if the file cannot
/// be opened. Writes are unbuffered at line granularity (fflush per record
/// is NOT performed; call flush() or destroy the sink to sync).
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  void write(const TraceRecord& record) override;
  void flush() override;

  long long lines_written() const { return lines_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  long long lines_ = 0;
};

/// Serialize a record as a single JSON line (no trailing newline).
/// Non-finite doubles are clamped to 0 so the output is always valid JSON.
std::string to_json_line(const TraceRecord& record);

/// Append `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void append_json_string(std::string& out, std::string_view s);

/// Parse one line produced by to_json_line (or any JSON object matching the
/// trace schema) back into a record. Throws IoError on malformed input.
TraceRecord parse_trace_line(std::string_view line);

}  // namespace megh
