// Wire protocol of the megh_serve policy daemon (docs/SERVING.md).
//
// Frames are length-prefixed binary, little-endian:
//     [u32 payload_len][u16 msg_type][payload bytes]
// A response reuses the request's msg_type; its payload starts with one
// status byte (0 = ok, anything else = error) followed by the body on
// success or a string (u32 length + bytes) carrying the server's exception
// text on failure. The same payload encodings double as the WAL record
// payloads — a Decide/Observe request is journaled as the bytes received
// and replays through the exact decode path a live request takes, which is
// what makes recovery a replay of the original request stream rather than
// a second serialization format to keep honest.
//
// Everything is explicit-width and bounds-checked: WireReader throws
// IoError (never reads past the buffer) so a truncated or fuzzed payload is
// a loud protocol error, not UB. Doubles travel as raw IEEE-754 bit
// patterns via bit_cast, so a value crosses the socket (and the WAL)
// bit-exactly — round-tripping through text would be a determinism bug.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/megh_policy.hpp"
#include "sim/cost_model.hpp"
#include "sim/host_spec.hpp"
#include "sim/network.hpp"
#include "sim/policy.hpp"

namespace megh::serve {

enum class MsgType : std::uint16_t {
  kHello = 0,       // liveness probe; response body = protocol version (u32)
  kInit = 1,        // ship fleet + configs; idempotent on a recovered server
  kDecide = 2,      // previous step's outcomes + this step's observation
                    // -> migration actions + policy stats
  kObserve = 3,     // end-of-run flush of the last step's outcomes + cost
  kCheckpoint = 4,  // force a compaction now
  kStats = 5,       // policy stats + serve.* counters
  kWalStatus = 6,   // journal/compaction introspection
  kDrain = 7,       // stop accepting new connections, finish in-flight
  kShutdown = 8,    // persist nothing extra (the WAL is the truth) and exit
};

/// Protocol version echoed by kHello; bumped on any frame/payload change.
/// v2: Decide carries the previous step's Observe and answers with stats.
inline constexpr std::uint32_t kProtocolVersion = 2;

const char* msg_type_name(MsgType type);

/// Append-only little-endian byte buffer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data);
  /// u32 count, then the elements — copied in bulk on little-endian hosts.
  void f64s(std::span<const double> values);
  void i32s(std::span<const std::int32_t> values);

  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  const std::vector<std::uint8_t>& out() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked cursor over a received payload. Throws IoError on any
/// read past the end; decoders call expect_done() so trailing garbage is
/// rejected too.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  /// Counterparts of WireWriter::f64s / i32s: a validated count, then the
  /// elements into `out` (resized to fit).
  void f64s(std::vector<double>& out, const char* what);
  void i32s(std::vector<std::int32_t>& out, const char* what);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws IoError naming `what` when bytes remain unconsumed.
  void expect_done(const char* what) const;
  /// Validated element count for a vector about to be read: each element
  /// occupies at least `min_element_bytes`, so a fuzzed count that cannot
  /// possibly fit the remaining payload fails here instead of ballooning
  /// an allocation.
  std::size_t count(std::size_t min_element_bytes, const char* what);

 private:
  template <typename T>
  void array(std::vector<T>& out, const char* what);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- messages -------------------------------------------------------------

/// kInit: everything the daemon needs to mirror the caller's datacenter and
/// run the identical MeghPolicy — specs, ordered placement, and both config
/// structs, all bit-exact. The per-host VM lists ship *in list order*
/// because candidate generation and the datacenter's cached sums are
/// list-order dependent; an unordered set would change decisions.
struct InitRequest {
  double interval_s = 300.0;
  CostConfig cost;
  MeghConfig config;
  bool has_network = false;
  int network_k = 0;
  NetworkLinkConfig links;
  std::vector<HostSpec> hosts;
  std::vector<VmSpec> vms;
  std::vector<std::vector<int>> host_vms;  // ordered VM list per host
};

/// The engine's verdict on the last Decide plus the realized step cost.
/// Applied migrations are replayed into the mirror in outcome order (the
/// engine applies in request order, so the orders coincide). It travels
/// inside the next Decide, or alone as kObserve to flush the last step of
/// a run.
struct ObserveRequest {
  double step_cost = 0.0;
  std::vector<MigrationOutcome> outcomes;
};

/// kDecide: one interval's observation. host_util ships precomputed (the
/// engine's own values) rather than being recomputed server-side, and
/// host_of is the authoritative placement — the server reconciles its
/// mirror against it, which also absorbs out-of-band moves (chaos
/// evacuations) the policy never requested.
struct DecideRequest {
  int step = 0;
  double last_step_cost = 0.0;
  std::vector<double> vm_util;
  std::vector<double> host_util;
  std::vector<int> host_of;
  std::vector<std::uint8_t> host_down;  // empty, or one byte per host
  /// The previous step's observation, applied before this step decides.
  /// Encoded as a trailing section only when present, so a v1 Decide (no
  /// section) decodes unchanged.
  std::optional<ObserveRequest> carried;
};

struct StatEntry {
  std::string name;
  double value = 0.0;
};

/// The actions plus the policy's own stats after deciding — what the
/// engine asks for at the end of the step. The daemon's serve.* counters
/// are not included: they change across a restart, which would make a
/// recovered daemon's answers differ from an uninterrupted one's.
struct DecideResponse {
  std::vector<MigrationAction> actions;
  std::vector<StatEntry> stats;
};

/// The policy's own stats after the flushed observation.
struct ObserveResponse {
  std::vector<StatEntry> stats;
};

struct StatsResponse {
  std::vector<StatEntry> stats;
};

struct WalStatusResponse {
  std::uint64_t next_seq = 1;
  std::uint64_t records_since_compaction = 0;
  std::uint64_t segments = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_gen = 0;  // 0 = no snapshot yet
  std::uint64_t snapshot_seq = 0;
};

struct CheckpointResponse {
  std::uint64_t snapshot_gen = 0;
  std::uint64_t snapshot_seq = 0;
};

// --- payload codecs -------------------------------------------------------
// Each decode_* consumes the whole payload (expect_done) and throws IoError
// on truncation, bad counts, or out-of-range enum bytes.

std::vector<std::uint8_t> encode_init(const InitRequest& req);
InitRequest decode_init(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_decide(const DecideRequest& req);
DecideRequest decode_decide(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_decide_response(const DecideResponse& resp);
DecideResponse decode_decide_response(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_observe(const ObserveRequest& req);
ObserveRequest decode_observe(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_stats(std::span<const StatEntry> stats);
std::vector<StatEntry> decode_stats(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_wal_status(const WalStatusResponse& resp);
WalStatusResponse decode_wal_status(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_checkpoint_response(
    const CheckpointResponse& resp);
CheckpointResponse decode_checkpoint_response(
    std::span<const std::uint8_t> payload);

}  // namespace megh::serve
