#include "serve/wire.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "sim/sla.hpp"

namespace megh::serve {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kInit: return "Init";
    case MsgType::kDecide: return "Decide";
    case MsgType::kObserve: return "Observe";
    case MsgType::kCheckpoint: return "Checkpoint";
    case MsgType::kStats: return "Stats";
    case MsgType::kWalStatus: return "WalStatus";
    case MsgType::kDrain: return "Drain";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "Unknown";
}

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Append `v` little-endian.
template <typename U>
void put_le(std::vector<std::uint8_t>& buf, U v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(U));
  if constexpr (kLittleEndian) {
    std::memcpy(buf.data() + at, &v, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename U>
U get_le(const std::uint8_t* in) {
  U v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, in, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(in[i]) << (8 * i));
    }
  }
  return v;
}

/// Unsigned integer of T's width: the wire form of a double or an int32.
template <typename T>
using WireBits =
    std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <typename T>
void put_array(std::vector<std::uint8_t>& buf, std::span<const T> values) {
  put_le(buf, static_cast<std::uint32_t>(values.size()));
  if constexpr (kLittleEndian) {
    const std::size_t at = buf.size();
    buf.resize(at + values.size_bytes());
    if (!values.empty()) {
      std::memcpy(buf.data() + at, values.data(), values.size_bytes());
    }
  } else {
    for (const T v : values) put_le(buf, std::bit_cast<WireBits<T>>(v));
  }
}

[[noreturn]] void truncated(const char* what) {
  throw IoError(strf("wire: truncated payload reading %s", what));
}

}  // namespace

void WireWriter::u16(std::uint16_t v) { put_le(buf_, v); }

void WireWriter::u32(std::uint32_t v) { put_le(buf_, v); }

void WireWriter::u64(std::uint64_t v) { put_le(buf_, v); }

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void WireWriter::f64s(std::span<const double> values) {
  put_array(buf_, values);
}

void WireWriter::i32s(std::span<const std::int32_t> values) {
  put_array(buf_, values);
}

std::uint8_t WireReader::u8() {
  if (remaining() < 1) truncated("u8");
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  if (remaining() < 2) truncated("u16");
  const std::uint16_t v = get_le<std::uint16_t>(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (remaining() < 4) truncated("u32");
  const std::uint32_t v = get_le<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (remaining() < 8) truncated("u64");
  const std::uint64_t v = get_le<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::size_t len = count(1, "string");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

template <typename T>
void WireReader::array(std::vector<T>& out, const char* what) {
  out.resize(count(sizeof(T), what));
  const std::uint8_t* in = data_.data() + pos_;
  if constexpr (kLittleEndian) {
    if (!out.empty()) std::memcpy(out.data(), in, out.size() * sizeof(T));
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<T>(get_le<WireBits<T>>(in + i * sizeof(T)));
    }
  }
  pos_ += out.size() * sizeof(T);
}

void WireReader::f64s(std::vector<double>& out, const char* what) {
  array(out, what);
}

void WireReader::i32s(std::vector<std::int32_t>& out, const char* what) {
  array(out, what);
}

void WireReader::expect_done(const char* what) const {
  if (!done()) {
    throw IoError(strf("wire: %zu trailing bytes after %s payload",
                       remaining(), what));
  }
}

std::size_t WireReader::count(std::size_t min_element_bytes,
                              const char* what) {
  const std::uint32_t n = u32();
  if (min_element_bytes > 0 &&
      static_cast<std::size_t>(n) > remaining() / min_element_bytes) {
    throw IoError(strf("wire: count %u for %s exceeds remaining payload",
                       static_cast<unsigned>(n), what));
  }
  return n;
}

// --- Init -----------------------------------------------------------------

namespace {

// The cost block's α slot holds the paper's 30% migration CPU threshold
// (Sec. 6.1). Nothing reads it; the slot stays so recorded journals still
// replay.
constexpr double kAlphaMigrationSlot = 0.30;

template <typename T>
void expect_builtin(T got, T builtin, const char* name) {
  // A plain != also rejects NaN.
  if (got != builtin) {
    throw IoError(strf("wire: Init %s differs from the built-in value",
                       name));
  }
}

// Like the MeghConfig block below, the cost block keeps a slot for each
// cost-model constant (cost_model.hpp, sla.hpp); a decoded Init must hold
// exactly their values.
void put_cost(WireWriter& w, const CostConfig& c) {
  w.f64(kEnergyPriceUsdPerKwh);
  w.f64(kVmPriceUsdPerHour);
  w.f64(kTier1Fraction);
  w.f64(kTier2Fraction);
  w.f64(kTier1DowntimePct);
  w.f64(kTier2DowntimePct);
  w.f64(c.beta_overload);
  w.f64(kAlphaMigrationSlot);
  w.f64(kMigrationDowntimeFraction);
  w.u8(static_cast<std::uint8_t>(c.overload_mode));
  w.u8(static_cast<std::uint8_t>(c.sla_accounting));
  w.i32(kSlaWindowSteps);
}

CostConfig get_cost(WireReader& r) {
  CostConfig c;
  expect_builtin(r.f64(), kEnergyPriceUsdPerKwh, "energy_price_usd_per_kwh");
  expect_builtin(r.f64(), kVmPriceUsdPerHour, "vm_price_usd_per_hour");
  expect_builtin(r.f64(), kTier1Fraction, "tier1_fraction");
  expect_builtin(r.f64(), kTier2Fraction, "tier2_fraction");
  expect_builtin(r.f64(), kTier1DowntimePct, "tier1_downtime_pct");
  expect_builtin(r.f64(), kTier2DowntimePct, "tier2_downtime_pct");
  c.beta_overload = r.f64();
  expect_builtin(r.f64(), kAlphaMigrationSlot, "alpha_migration");
  expect_builtin(r.f64(), kMigrationDowntimeFraction,
                 "migration_downtime_fraction");
  const std::uint8_t overload = r.u8();
  if (overload > 1) throw IoError("wire: bad overload mode byte");
  c.overload_mode = static_cast<OverloadDowntimeMode>(overload);
  const std::uint8_t sla = r.u8();
  if (sla > 1) throw IoError("wire: bad SLA accounting byte");
  c.sla_accounting = static_cast<SlaAccounting>(sla);
  expect_builtin(r.i32(), kSlaWindowSteps, "sla_window_steps");
  return c;
}

// The Init layout keeps a slot for each built-in constant (kBaselineWeight,
// kMaxUpdateSupport and the candidate sizes in core/candidates.hpp), so
// recorded journals still replay; a decoded Init must hold exactly their
// values.
void put_megh_config(WireWriter& w, const MeghConfig& c) {
  w.f64(c.gamma);
  w.f64(c.temp0);
  w.f64(c.epsilon);
  w.f64(c.delta);
  w.f64(c.max_migration_fraction);
  w.u8(c.advantage_baseline ? 1 : 0);
  w.f64(kBaselineWeight);
  w.i32(kMaxUpdateSupport);
  w.u8(c.learning_enabled ? 1 : 0);
  w.i64(c.candidates.full_enumeration_limit);
  w.i32(kMaxOverloadedSources);
  w.i32(kConsolidationSources);
  w.i32(kRandomSources);
  w.i32(kTargetsPerSource);
  w.f64(kTargetUtilCeiling);
  w.f64(kPackCeiling);
  w.u8(c.candidates.network_aware ? 1 : 0);
  w.f64(kLocalProbeFraction);
  w.u64(c.seed);
}

MeghConfig get_megh_config(WireReader& r) {
  MeghConfig c;
  c.gamma = r.f64();
  c.temp0 = r.f64();
  c.epsilon = r.f64();
  c.delta = r.f64();
  c.max_migration_fraction = r.f64();
  c.advantage_baseline = r.u8() != 0;
  expect_builtin(r.f64(), kBaselineWeight, "baseline_weight");
  expect_builtin(r.i32(), kMaxUpdateSupport, "max_update_support");
  c.learning_enabled = r.u8() != 0;
  c.candidates.full_enumeration_limit = r.i64();
  expect_builtin(r.i32(), kMaxOverloadedSources, "max_overloaded_sources");
  expect_builtin(r.i32(), kConsolidationSources, "consolidation_sources");
  expect_builtin(r.i32(), kRandomSources, "random_sources");
  expect_builtin(r.i32(), kTargetsPerSource, "targets_per_source");
  expect_builtin(r.f64(), kTargetUtilCeiling, "target_util_ceiling");
  expect_builtin(r.f64(), kPackCeiling, "pack_ceiling");
  c.candidates.network_aware = r.u8() != 0;
  expect_builtin(r.f64(), kLocalProbeFraction, "local_probe_fraction");
  c.seed = r.u64();
  // The chaos recovery machinery stays client-side; a served policy never
  // runs it (the engine's fault feedback is reconciled via host_of).
  c.recovery = false;
  return c;
}

}  // namespace

std::vector<std::uint8_t> encode_init(const InitRequest& req) {
  WireWriter w;
  w.f64(req.interval_s);
  put_cost(w, req.cost);
  put_megh_config(w, req.config);
  w.u8(req.has_network ? 1 : 0);
  if (req.has_network) {
    w.i32(req.network_k);
    // The link speeds are built-in constants too (sim/network.hpp).
    w.f64(kEdgeLinkMbps);
    w.f64(kAggregationLinkMbps);
    w.f64(kCoreLinkMbps);
    w.f64(req.links.oversubscription);
  }
  w.u32(static_cast<std::uint32_t>(req.hosts.size()));
  for (const HostSpec& h : req.hosts) {
    w.str(h.model);
    w.f64(h.mips);
    w.f64(h.ram_mb);
    w.f64(h.bw_mbps);
    w.str(h.power.name());
    for (double knot : h.power.table()) w.f64(knot);
    w.f64(h.power.sleep_watts());
  }
  w.u32(static_cast<std::uint32_t>(req.vms.size()));
  for (const VmSpec& v : req.vms) {
    w.f64(v.mips);
    w.f64(v.ram_mb);
    w.f64(v.bw_mbps);
  }
  for (const std::vector<int>& vms : req.host_vms) {
    w.u32(static_cast<std::uint32_t>(vms.size()));
    for (int vm : vms) w.i32(vm);
  }
  return w.take();
}

InitRequest decode_init(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  InitRequest req;
  req.interval_s = r.f64();
  req.cost = get_cost(r);
  req.config = get_megh_config(r);
  req.has_network = r.u8() != 0;
  if (req.has_network) {
    req.network_k = r.i32();
    expect_builtin(r.f64(), kEdgeLinkMbps, "edge_mbps");
    expect_builtin(r.f64(), kAggregationLinkMbps, "aggregation_mbps");
    expect_builtin(r.f64(), kCoreLinkMbps, "core_mbps");
    req.links.oversubscription = r.f64();
  }
  const std::size_t num_hosts = r.count(8 * 3 + 4 * 2 + 12 * 8, "hosts");
  req.hosts.reserve(num_hosts);
  for (std::size_t i = 0; i < num_hosts; ++i) {
    std::string model = r.str();
    const double mips = r.f64();
    const double ram = r.f64();
    const double bw = r.f64();
    std::string power_name = r.str();
    std::array<double, 11> table{};
    for (double& knot : table) knot = r.f64();
    const double sleep = r.f64();
    req.hosts.push_back(HostSpec{std::move(model), mips, ram, bw,
                                 PowerModel(std::move(power_name), table,
                                            sleep)});
  }
  const std::size_t num_vms = r.count(24, "vms");
  req.vms.reserve(num_vms);
  for (std::size_t i = 0; i < num_vms; ++i) {
    VmSpec v;
    v.mips = r.f64();
    v.ram_mb = r.f64();
    v.bw_mbps = r.f64();
    req.vms.push_back(v);
  }
  req.host_vms.resize(num_hosts);
  for (std::size_t h = 0; h < num_hosts; ++h) {
    const std::size_t n = r.count(4, "host VM list");
    req.host_vms[h].reserve(n);
    for (std::size_t k = 0; k < n; ++k) req.host_vms[h].push_back(r.i32());
  }
  r.expect_done("Init");
  return req;
}

// --- Observe / Decide / Stats --------------------------------------------

namespace {

void put_observe(WireWriter& w, const ObserveRequest& req) {
  w.f64(req.step_cost);
  w.u32(static_cast<std::uint32_t>(req.outcomes.size()));
  for (const MigrationOutcome& o : req.outcomes) {
    w.i32(o.vm);
    w.i32(o.target_host);
    w.u8(static_cast<std::uint8_t>(o.verdict));
  }
}

ObserveRequest get_observe(WireReader& r) {
  ObserveRequest req;
  req.step_cost = r.f64();
  const std::size_t n = r.count(9, "outcomes");
  req.outcomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MigrationOutcome o;
    o.vm = r.i32();
    o.target_host = r.i32();
    const std::uint8_t verdict = r.u8();
    if (verdict > static_cast<std::uint8_t>(MigrationVerdict::kAborted)) {
      throw IoError("wire: bad migration verdict byte");
    }
    o.verdict = static_cast<MigrationVerdict>(verdict);
    req.outcomes.push_back(o);
  }
  return req;
}

void put_stats(WireWriter& w, std::span<const StatEntry> stats) {
  w.u32(static_cast<std::uint32_t>(stats.size()));
  for (const StatEntry& s : stats) {
    w.str(s.name);
    w.f64(s.value);
  }
}

std::vector<StatEntry> get_stats(WireReader& r) {
  const std::size_t n = r.count(12, "stats");
  std::vector<StatEntry> stats;
  stats.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    StatEntry s;
    s.name = r.str();
    s.value = r.f64();
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace

std::vector<std::uint8_t> encode_decide(const DecideRequest& req) {
  WireWriter w;
  w.reserve(4 + 8 + 4 * 4 + 8 * (req.vm_util.size() + req.host_util.size()) +
            4 * req.host_of.size() + req.host_down.size() +
            (req.carried ? 12 + 9 * req.carried->outcomes.size() : 0));
  w.i32(req.step);
  w.f64(req.last_step_cost);
  w.f64s(req.vm_util);
  w.f64s(req.host_util);
  w.i32s(req.host_of);
  w.u32(static_cast<std::uint32_t>(req.host_down.size()));
  w.bytes(req.host_down);
  if (req.carried) put_observe(w, *req.carried);
  return w.take();
}

DecideRequest decode_decide(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecideRequest req;
  req.step = r.i32();
  req.last_step_cost = r.f64();
  r.f64s(req.vm_util, "vm_util");
  r.f64s(req.host_util, "host_util");
  r.i32s(req.host_of, "host_of");
  const std::size_t n_down = r.count(1, "host_down");
  req.host_down.resize(n_down);
  for (std::uint8_t& b : req.host_down) b = r.u8();
  if (!r.done()) req.carried = get_observe(r);
  r.expect_done("Decide");
  return req;
}

std::vector<std::uint8_t> encode_decide_response(const DecideResponse& resp) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(resp.actions.size()));
  for (const MigrationAction& a : resp.actions) {
    w.i32(a.vm);
    w.i32(a.target_host);
  }
  put_stats(w, resp.stats);
  return w.take();
}

DecideResponse decode_decide_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecideResponse resp;
  const std::size_t n = r.count(8, "actions");
  resp.actions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    MigrationAction a;
    a.vm = r.i32();
    a.target_host = r.i32();
    resp.actions.push_back(a);
  }
  resp.stats = get_stats(r);
  r.expect_done("DecideResponse");
  return resp;
}

std::vector<std::uint8_t> encode_observe(const ObserveRequest& req) {
  WireWriter w;
  put_observe(w, req);
  return w.take();
}

ObserveRequest decode_observe(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ObserveRequest req = get_observe(r);
  r.expect_done("Observe");
  return req;
}

std::vector<std::uint8_t> encode_stats(std::span<const StatEntry> stats) {
  WireWriter w;
  put_stats(w, stats);
  return w.take();
}

std::vector<StatEntry> decode_stats(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  std::vector<StatEntry> stats = get_stats(r);
  r.expect_done("Stats");
  return stats;
}

// --- WalStatus / Checkpoint ------------------------------------------------

std::vector<std::uint8_t> encode_wal_status(const WalStatusResponse& resp) {
  WireWriter w;
  w.u64(resp.next_seq);
  w.u64(resp.records_since_compaction);
  w.u64(resp.segments);
  w.u64(resp.wal_bytes);
  w.u64(resp.snapshot_gen);
  w.u64(resp.snapshot_seq);
  return w.take();
}

WalStatusResponse decode_wal_status(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WalStatusResponse resp;
  resp.next_seq = r.u64();
  resp.records_since_compaction = r.u64();
  resp.segments = r.u64();
  resp.wal_bytes = r.u64();
  resp.snapshot_gen = r.u64();
  resp.snapshot_seq = r.u64();
  r.expect_done("WalStatus");
  return resp;
}

std::vector<std::uint8_t> encode_checkpoint_response(
    const CheckpointResponse& resp) {
  WireWriter w;
  w.u64(resp.snapshot_gen);
  w.u64(resp.snapshot_seq);
  return w.take();
}

CheckpointResponse decode_checkpoint_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  CheckpointResponse resp;
  resp.snapshot_gen = r.u64();
  resp.snapshot_seq = r.u64();
  r.expect_done("CheckpointResponse");
  return resp;
}

}  // namespace megh::serve
