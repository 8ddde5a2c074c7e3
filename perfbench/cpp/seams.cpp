#include "seams.hpp"

#include <bit>

#include "common/error.hpp"

namespace perfbench {

namespace {

const char* verb_span_name(megh::serve::MsgType type) {
  using megh::serve::MsgType;
  switch (type) {
    case MsgType::kInit: return "serve.init";
    case MsgType::kDecide: return "serve.decide";
    case MsgType::kObserve: return "serve.observe";
    case MsgType::kStats: return "serve.stats";
    case MsgType::kWalStatus: return "serve.wal_status";
    case MsgType::kShutdown: return "serve.shutdown";
    default: return "serve.other";
  }
}

}  // namespace

int Tracer::open(const char* name, int step, std::int64_t start_ns) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  // Spans opened below a step (serve round trips) inherit its request id.
  if (step < 0 && parent >= 0) step = spans_[static_cast<std::size_t>(parent)].step;
  spans_.push_back({name, step, parent, start_ns, -1});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id, std::int64_t end_ns) {
  if (id < 0) return;
  MEGH_REQUIRE(!open_.empty() && open_.back() == id,
               "spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  open_.pop_back();
}

void Tracer::discard_last_open() {
  if (!enabled_ || open_.empty()) return;
  MEGH_REQUIRE(open_.back() == static_cast<int>(spans_.size()) - 1,
               "only the last recorded span can be discarded");
  spans_.pop_back();
  open_.pop_back();
}

std::size_t ShadowCandidates::run(const megh::StepObservation& obs) {
  megh::generate_candidates(*obs.dc, obs.host_util, obs.cost->beta_overload,
                            basis_, config_, rng_, scratch_, obs.network,
                            obs.exec);
  return scratch_.candidates.size();
}

void TimedPolicy::begin(const megh::Datacenter& dc,
                        const megh::CostConfig& cost, double interval_s) {
  {
    ScopedSpan span(tracer_, "policy.begin", -1);
    inner_.begin(dc, cost, interval_s);
  }
  if (tracer_.enabled() && shadow_seed_) {
    shadow_.emplace(dc.num_vms(), dc.num_hosts(), *shadow_seed_);
  }
  current_step_ = 0;
  hash_ = kDigestSeed;
  begin_end_ns_ = last_mark_ns_ = now_ns();
  step_span_ = tracer_.open("sim.step", 0, last_mark_ns_);
}

void TimedPolicy::decide_into(const megh::StepObservation& obs,
                              std::vector<megh::MigrationAction>& out) {
  if (shadow_) {
    // The benchmark's own work: a child of the step, but not a policy
    // callback — it is the named residual of the step's attribution.
    ScopedSpan span(tracer_, "bench.shadow_candidates", obs.step);
    shadow_counts_.push_back(static_cast<double>(shadow_->run(obs)));
  }
  ScopedSpan span(tracer_, "policy.decide", obs.step);
  inner_.decide_into(obs, out);
}

void TimedPolicy::observe_outcomes(
    std::span<const megh::MigrationOutcome> outcomes) {
  for (const megh::MigrationOutcome& o : outcomes) {
    ++requested_;
    if (o.verdict != megh::MigrationVerdict::kApplied) continue;
    ++applied_;
    hash_ = digest_mix(hash_, static_cast<std::uint32_t>(o.vm));
    hash_ = digest_mix(hash_, static_cast<std::uint32_t>(o.target_host));
  }
  ScopedSpan span(tracer_, "policy.observe_outcomes", current_step_);
  inner_.observe_outcomes(outcomes);
}

void TimedPolicy::observe_cost(double step_cost) {
  hash_ = digest_mix(hash_, std::bit_cast<std::uint64_t>(step_cost));
  ScopedSpan span(tracer_, "policy.observe_cost", current_step_);
  inner_.observe_cost(step_cost);
}

void TimedPolicy::stats(megh::PolicyStats& out) const {
  ScopedSpan span(tracer_, "policy.stats", current_step_);
  inner_.stats(out);
}

void TimedPolicy::end_step(int step) {
  const std::int64_t now = now_ns();
  tracer_.close(step_span_, now);
  step_ms_.push_back(static_cast<double>(now - last_mark_ns_) / 1e6);
  digest_.push_back(hash_);
  hash_ = kDigestSeed;
  last_mark_ns_ = now;
  current_step_ = step + 1;
  step_span_ = tracer_.open("sim.step", current_step_, now);
}

std::vector<std::uint8_t> TimedTransport::roundtrip(
    megh::serve::MsgType type, std::span<const std::uint8_t> payload) {
  if (type == megh::serve::MsgType::kDecide ||
      type == megh::serve::MsgType::kObserve) {
    step_request_bytes_ += static_cast<long long>(payload.size());
  }
  ScopedSpan span(tracer_, verb_span_name(type), -1);
  return inner_->roundtrip(type, payload);
}

}  // namespace perfbench
