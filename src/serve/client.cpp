#include "serve/client.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh::serve {

std::vector<std::uint8_t> unwrap_response(
    MsgType type, std::span<const std::uint8_t> response) {
  WireReader r(response);
  const std::uint8_t status = r.u8();
  if (status != 0) {
    throw Error(strf("megh_serve %s failed: %s", msg_type_name(type),
                     r.str().c_str()));
  }
  std::vector<std::uint8_t> body(response.begin() + 1, response.end());
  return body;
}

std::uint32_t ServeClient::hello() {
  // Bound to a local: WireReader holds a span over these bytes.
  const std::vector<std::uint8_t> body =
      transport_->roundtrip(MsgType::kHello, {});
  WireReader r(body);
  const std::uint32_t version = r.u32();
  r.expect_done("Hello");
  return version;
}

void ServeClient::check_protocol() {
  const std::uint32_t version = hello();
  if (version != kProtocolVersion) {
    throw Error(strf("daemon speaks protocol v%u, this client v%u",
                     static_cast<unsigned>(version),
                     static_cast<unsigned>(kProtocolVersion)));
  }
}

void ServeClient::init(const InitRequest& req) {
  transport_->roundtrip(MsgType::kInit, encode_init(req));
}

DecideResponse ServeClient::decide(const DecideRequest& req) {
  return decode_decide_response(
      transport_->roundtrip(MsgType::kDecide, encode_decide(req)));
}

ObserveResponse ServeClient::observe(const ObserveRequest& req) {
  ObserveResponse resp;
  resp.stats = decode_stats(
      transport_->roundtrip(MsgType::kObserve, encode_observe(req)));
  return resp;
}

CheckpointResponse ServeClient::checkpoint() {
  return decode_checkpoint_response(
      transport_->roundtrip(MsgType::kCheckpoint, {}));
}

std::vector<StatEntry> ServeClient::stats() {
  return decode_stats(transport_->roundtrip(MsgType::kStats, {}));
}

WalStatusResponse ServeClient::wal_status() {
  return decode_wal_status(transport_->roundtrip(MsgType::kWalStatus, {}));
}

void ServeClient::drain() { transport_->roundtrip(MsgType::kDrain, {}); }

void ServeClient::shutdown() {
  transport_->roundtrip(MsgType::kShutdown, {});
}

void RemoteMeghPolicy::begin(const Datacenter& dc, const CostConfig& cost,
                             double interval_s) {
  client_.check_protocol();
  InitRequest req;
  req.interval_s = interval_s;
  req.cost = cost;
  req.config = config_;
  if (network_) {
    req.has_network = true;
    req.network_k = network_->k();
    req.links = network_->links();
  }
  req.hosts.reserve(static_cast<std::size_t>(dc.num_hosts()));
  for (int h = 0; h < dc.num_hosts(); ++h) {
    req.hosts.push_back(dc.host_spec(h));
  }
  req.vms.reserve(static_cast<std::size_t>(dc.num_vms()));
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    req.vms.push_back(dc.vm_spec(vm));
  }
  req.host_vms.resize(static_cast<std::size_t>(dc.num_hosts()));
  for (int h = 0; h < dc.num_hosts(); ++h) {
    const std::span<const int> vms = dc.vms_on(h);
    req.host_vms[static_cast<std::size_t>(h)].assign(vms.begin(), vms.end());
  }
  client_.init(req);
  decide_scratch_.carried.reset();
  stats_cache_.clear();
}

void RemoteMeghPolicy::decide_into(const StepObservation& obs,
                                   std::vector<MigrationAction>& out) {
  DecideRequest& req = decide_scratch_;
  req.step = obs.step;
  req.last_step_cost = obs.last_step_cost;
  req.vm_util.assign(obs.vm_util.begin(), obs.vm_util.end());
  req.host_util.assign(obs.host_util.begin(), obs.host_util.end());
  req.host_of.resize(static_cast<std::size_t>(obs.dc->num_vms()));
  for (int vm = 0; vm < obs.dc->num_vms(); ++vm) {
    req.host_of[static_cast<std::size_t>(vm)] = obs.dc->host_of(vm);
  }
  req.host_down.assign(obs.host_down.begin(), obs.host_down.end());
  DecideResponse resp = client_.decide(req);
  // Acknowledged, so the daemon applied the carried observation.
  req.carried.reset();
  stats_cache_ = std::move(resp.stats);
  out.insert(out.end(), resp.actions.begin(), resp.actions.end());
}

ObserveRequest& RemoteMeghPolicy::pending() {
  if (!decide_scratch_.carried) decide_scratch_.carried.emplace();
  return *decide_scratch_.carried;
}

void RemoteMeghPolicy::observe_outcomes(
    std::span<const MigrationOutcome> outcomes) {
  pending().outcomes.assign(outcomes.begin(), outcomes.end());
}

void RemoteMeghPolicy::observe_cost(double step_cost) {
  pending().step_cost = step_cost;
}

void RemoteMeghPolicy::flush() {
  if (!decide_scratch_.carried) return;
  ObserveResponse resp = client_.observe(*decide_scratch_.carried);
  decide_scratch_.carried.reset();
  stats_cache_ = std::move(resp.stats);
}

void RemoteMeghPolicy::stats(PolicyStats& out) const {
  for (const StatEntry& entry : stats_cache_) {
    out.set(StatKey::intern(entry.name), entry.value);
  }
}

}  // namespace megh::serve
