#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "telemetry/trace_sink.hpp"

namespace megh {
namespace {

/// Stores every record in memory so tests can assert on exactly what the
/// flush emitted.
class VectorSink final : public TraceSink {
 public:
  void write(const TraceRecord& record) override { records_.push_back(record); }
  std::vector<TraceRecord>& records() { return records_; }

 private:
  std::vector<TraceRecord> records_;
};

/// Telemetry is process-wide state; every test starts and ends from the
/// pristine kOff/null-sink configuration so order doesn't matter.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { Telemetry::instance().reset(); }
  void TearDown() override { Telemetry::instance().reset(); }
};

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TraceRecord record_at(int step) {
  TraceRecord record;
  record.step = step;
  return record;
}

TEST_F(TelemetryTest, JsonRoundTripPreservesEveryField) {
  TraceRecord record;
  record.step = 17;
  record.phase_ms = {{"sim.decide", 1.25}, {"lspi.update", 0.004}};
  record.phase_count = {{"sim.decide", 1}, {"lspi.update", 3}};
  record.counters = {{"sim.migrations_applied", 42}};
  record.gauges = {{"lspi.b_offdiag_nnz", 415.0}};

  const TraceRecord back = parse_trace_line(to_json_line(record));
  EXPECT_EQ(back.step, 17);
  EXPECT_EQ(back.phase_ms, record.phase_ms);
  EXPECT_EQ(back.phase_count, record.phase_count);
  EXPECT_EQ(back.counters, record.counters);
  EXPECT_EQ(back.gauges, record.gauges);
}

TEST_F(TelemetryTest, JsonClampsNonFiniteToZero) {
  TraceRecord record;
  record.gauges = {{"bad", std::numeric_limits<double>::quiet_NaN()},
                   {"worse", std::numeric_limits<double>::infinity()}};
  const TraceRecord back = parse_trace_line(to_json_line(record));
  EXPECT_EQ(back.gauges.at("bad"), 0.0);
  EXPECT_EQ(back.gauges.at("worse"), 0.0);
}

TEST_F(TelemetryTest, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_trace_line(""), IoError);
  EXPECT_THROW(parse_trace_line("not json"), IoError);
  EXPECT_THROW(parse_trace_line("{\"step\":"), IoError);
  EXPECT_THROW(parse_trace_line("{\"step\":1,}"), IoError);
}

TEST_F(TelemetryTest, JsonlSinkWritesOneValidJsonObjectPerLine) {
  const std::string path = temp_path("megh_test_sink.jsonl");
  Telemetry& telemetry = Telemetry::instance();
  telemetry.configure(std::make_unique<JsonlTraceSink>(path),
                      TraceLevel::kPhases);
  long long events = 0;
  for (int step = 0; step < 5; ++step) {
    events += step + 1;  // cumulative: 1, 3, 6, 10, 15
    TraceRecord record = record_at(step);
    record.counters["test.events"] = events;
    telemetry.record_phase("test.phase", 0.5);
    telemetry.flush_step(record);
  }
  telemetry.reset();  // destroys (and flushes) the sink

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  long long previous = -1;
  while (std::getline(in, line)) {
    const TraceRecord record = parse_trace_line(line);  // valid JSON per line
    EXPECT_EQ(record.step, lines);
    // Counters are cumulative, so they must be monotone across records.
    const long long value = record.counters.at("test.events");
    EXPECT_GT(value, previous);
    previous = value;
    EXPECT_DOUBLE_EQ(record.phase_ms.at("test.phase"), 0.5);
    EXPECT_EQ(record.phase_count.at("test.phase"), 1);
    ++lines;
  }
  EXPECT_EQ(lines, 5);
  EXPECT_EQ(previous, 15);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, OffLevelIsANoOp) {
  Telemetry& telemetry = Telemetry::instance();
  ASSERT_EQ(telemetry.level(), TraceLevel::kOff);
  EXPECT_FALSE(telemetry.timing_enabled());
  {
    MEGH_TRACE_SCOPE("test.ignored");  // guard must not record at kOff
  }
  telemetry.flush_step(record_at(0));

  // A record handed to the flush at kOff never reaches the sink.
  auto sink = std::make_unique<VectorSink>();
  VectorSink* captured = sink.get();
  telemetry.configure(std::move(sink), TraceLevel::kOff);
  TraceRecord record = record_at(1);
  record.counters["test.c"] = 3;
  telemetry.flush_step(record);
  EXPECT_TRUE(captured->records().empty());

  // The scope at kOff left nothing behind for a later kPhases flush.
  auto phases_sink = std::make_unique<VectorSink>();
  VectorSink* phases = phases_sink.get();
  telemetry.configure(std::move(phases_sink), TraceLevel::kPhases);
  telemetry.flush_step(record_at(2));
  ASSERT_EQ(phases->records().size(), 1u);
  EXPECT_TRUE(phases->records()[0].phase_ms.empty());
}

TEST_F(TelemetryTest, ScopedPhaseAccumulatesIntoStepRecord) {
  Telemetry& telemetry = Telemetry::instance();
  auto sink = std::make_unique<VectorSink>();
  VectorSink* captured = sink.get();
  telemetry.configure(std::move(sink), TraceLevel::kPhases);
  EXPECT_TRUE(telemetry.timing_enabled());

  for (int i = 0; i < 3; ++i) {
    MEGH_TRACE_SCOPE("test.loop");
  }
  telemetry.flush_step(record_at(7));

  ASSERT_EQ(captured->records().size(), 1u);
  const TraceRecord& record = captured->records()[0];
  EXPECT_EQ(record.step, 7);
  EXPECT_EQ(record.phase_count.at("test.loop"), 3);
  EXPECT_GE(record.phase_ms.at("test.loop"), 0.0);

  // The per-step accumulator was cleared by the flush: a second flush with
  // no new scopes carries no phases.
  telemetry.flush_step(record_at(8));
  ASSERT_EQ(captured->records().size(), 2u);
  EXPECT_TRUE(captured->records()[1].phase_ms.empty());
}

TEST_F(TelemetryTest, CountersLevelOmitsPhases) {
  Telemetry& telemetry = Telemetry::instance();
  auto sink = std::make_unique<VectorSink>();
  VectorSink* captured = sink.get();
  telemetry.configure(std::move(sink), TraceLevel::kCounters);
  EXPECT_FALSE(telemetry.timing_enabled());

  TraceRecord step = record_at(0);
  step.counters["test.c"] = 2;
  step.gauges["test.g"] = 1.5;
  telemetry.record_phase("test.phase", 0.5);
  telemetry.flush_step(step);

  ASSERT_EQ(captured->records().size(), 1u);
  const TraceRecord& record = captured->records()[0];
  EXPECT_TRUE(record.phase_ms.empty());
  EXPECT_EQ(record.counters.at("test.c"), 2);
  EXPECT_DOUBLE_EQ(record.gauges.at("test.g"), 1.5);
}

TEST_F(TelemetryTest, TraceLevelParsing) {
  EXPECT_EQ(parse_trace_level("off"), TraceLevel::kOff);
  EXPECT_EQ(parse_trace_level("counters"), TraceLevel::kCounters);
  EXPECT_EQ(parse_trace_level("phases"), TraceLevel::kPhases);
  EXPECT_THROW(parse_trace_level("verbose"), ConfigError);
  EXPECT_STREQ(trace_level_name(TraceLevel::kPhases), "phases");
}

TEST_F(TelemetryTest, JsonEscapesSpecialCharacters) {
  TraceRecord record;
  record.counters = {{"weird\"name\\with\ncontrol", 1}};
  const TraceRecord back = parse_trace_line(to_json_line(record));
  EXPECT_EQ(back.counters.at("weird\"name\\with\ncontrol"), 1);
}

}  // namespace
}  // namespace megh
