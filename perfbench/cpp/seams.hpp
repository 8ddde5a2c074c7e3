// The benchmark's measurement seams. Every layer is timed from outside,
// through interfaces the library already exposes — nothing here reaches
// into src/:
//
//   * Tracer: spans (name, start, end, parent) kept in memory, the step
//     index serving as the request id; written out when the run ends.
//   * TimedPolicy: a forwarding MigrationPolicy around the policy under
//     test. It timestamps every step from the engine's on_step hook (so
//     per-step numbers never include begin()), digests each step's applied
//     migrations and cost, and — when tracing — records a span per callback
//     plus a shadow full-fleet generate_candidates call.
//   * TimedTransport: a forwarding serve::ServeTransport that records each
//     round trip as a span named after its verb, plus request bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/basis.hpp"
#include "core/candidates.hpp"
#include "serve/client.hpp"
#include "sim/policy.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the eight bytes of `value`, continuing from `hash`.
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
inline std::uint64_t digest_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Span {
  const char* name;  // string literal
  int step;          // request id: the simulated step, -1 outside the loop
  int parent;        // index into Tracer::spans(), -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;  // -1 while open
};

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// is stored, which is how untraced runs take the same code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Open a span as a child of the innermost open one; -1 when disabled.
  int open(const char* name, int step, std::int64_t start_ns);
  void close(int id, std::int64_t end_ns);
  /// Drop the innermost open span, which must be the last one recorded.
  void discard_last_open();
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int step)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, step, now_ns()) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.close(id_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Candidate generation over the whole fleet on a step's inputs, with its
/// own RNG stream and scratch so the policy under test is untouched.
class ShadowCandidates {
 public:
  ShadowCandidates(int num_vms, int num_hosts, std::uint64_t seed)
      : basis_(num_vms, num_hosts), rng_(seed) {}
  /// Returns the candidate count.
  std::size_t run(const megh::StepObservation& obs);

 private:
  megh::ActionBasis basis_;
  megh::CandidateConfig config_;
  megh::Rng rng_;
  megh::CandidateScratch scratch_;
};

class TimedPolicy final : public megh::MigrationPolicy {
 public:
  /// `shadow_seed` engages the shadow candidate call when tracing.
  TimedPolicy(megh::MigrationPolicy& inner, Tracer& tracer,
              std::optional<std::uint64_t> shadow_seed)
      : inner_(inner), tracer_(tracer), shadow_seed_(shadow_seed) {}

  std::string name() const override { return inner_.name(); }
  void begin(const megh::Datacenter& dc, const megh::CostConfig& cost,
             double interval_s) override;
  void decide_into(const megh::StepObservation& obs,
                   std::vector<megh::MigrationAction>& out) override;
  void observe_outcomes(
      std::span<const megh::MigrationOutcome> outcomes) override;
  void observe_cost(double step_cost) override;
  void stats(megh::PolicyStats& out) const override;

  /// The engine's on_step hook: closes step `step`.
  void end_step(int step);

  std::int64_t begin_end_ns() const { return begin_end_ns_; }
  /// Wall time of each completed step, from the end of the previous step
  /// (or of begin()) to this step's on_step hook.
  const std::vector<double>& step_ms() const { return step_ms_; }
  /// Per-step digest of the applied migrations and the step cost.
  const std::vector<std::uint64_t>& step_digest() const { return digest_; }
  long long requested() const { return requested_; }
  long long applied() const { return applied_; }
  const std::vector<double>& shadow_counts() const { return shadow_counts_; }

 private:
  megh::MigrationPolicy& inner_;
  Tracer& tracer_;
  std::optional<std::uint64_t> shadow_seed_;
  std::optional<ShadowCandidates> shadow_;
  int current_step_ = 0;
  int step_span_ = -1;
  std::int64_t begin_end_ns_ = 0;
  std::int64_t last_mark_ns_ = 0;
  std::uint64_t hash_ = 0;
  std::vector<double> step_ms_;
  std::vector<std::uint64_t> digest_;
  std::vector<double> shadow_counts_;
  long long requested_ = 0;
  long long applied_ = 0;
};

class TimedTransport final : public megh::serve::ServeTransport {
 public:
  TimedTransport(std::unique_ptr<megh::serve::ServeTransport> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::vector<std::uint8_t> roundtrip(
      megh::serve::MsgType type,
      std::span<const std::uint8_t> payload) override;

  /// Payload bytes sent with Decide and Observe requests.
  long long step_request_bytes() const { return step_request_bytes_; }

 private:
  std::unique_ptr<megh::serve::ServeTransport> inner_;
  Tracer& tracer_;
  long long step_request_bytes_ = 0;
};

}  // namespace perfbench
