#include "serve/server.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "core/checkpoint.hpp"

namespace megh::serve {

namespace {

constexpr const char* kInitFile = "init.bin";
/// v2 holds one pending list per pod and embeds the policy as a v4
/// checkpoint; v1 embedded the retired v3 flat checkpoint.
constexpr const char* kSnapshotMagic = "megh-serve-snapshot v2";

std::string snapshot_name(std::uint64_t gen) {
  return strf("snap-%020llu.ckpt", static_cast<unsigned long long>(gen));
}

/// Parse the number between the first '-' and the extension of a
/// wal-<seq>.log / snap-<gen>.ckpt filename.
std::uint64_t parse_file_number(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  const std::size_t dash = name.find('-');
  const std::size_t dot = name.rfind('.');
  MEGH_ASSERT(dash != std::string::npos && dot != std::string::npos &&
                  dot > dash,
              "serve: unparseable journal filename");
  std::uint64_t value = 0;
  for (std::size_t i = dash + 1; i < dot; ++i) {
    MEGH_ASSERT(name[i] >= '0' && name[i] <= '9',
                "serve: unparseable journal filename");
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return value;
}

std::vector<std::filesystem::path> list_snapshots(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> snaps;
  if (!std::filesystem::exists(dir)) return snaps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (starts_with(name, "snap-") && name.ends_with(".ckpt")) {
      snaps.push_back(entry.path());
    }
  }
  std::sort(snaps.begin(), snaps.end());  // zero-padded: gen order
  return snaps;
}

/// Consume a snapshot's magic line. A snapshot of another format version
/// is refused with an error naming the version found — before recovery
/// touches anything in the directory.
void read_snapshot_magic(std::istream& in, const std::filesystem::path& path) {
  std::string line;
  std::getline(in, line);
  const std::string_view magic = trim(line);
  if (magic == kSnapshotMagic) return;
  constexpr std::string_view kPrefix = "megh-serve-snapshot ";
  if (starts_with(magic, kPrefix)) {
    throw ConfigError(strf(
        "serve: snapshot %s has format '%s', but this daemon reads only "
        "'%s'; recover the directory with the release that wrote it",
        path.string().c_str(), std::string(magic).c_str(), kSnapshotMagic));
  }
  throw IoError("serve: bad snapshot magic in " + path.string());
}

/// Read just the "seq" field out of a snapshot header (cheap eligibility
/// check during recovery, before committing to a full parse).
std::uint64_t snapshot_seq_of(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("serve: cannot open snapshot: " + path.string());
  read_snapshot_magic(in, path);
  std::string key;
  std::uint64_t seq = 0;
  if (!(in >> key >> seq) || key != "seq") {
    throw IoError("serve: malformed snapshot header in " + path.string());
  }
  return seq;
}

std::vector<std::uint8_t> ok_response(std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + body.size());
  out.push_back(0);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> error_response(const std::string& what) {
  WireWriter w;
  w.u8(1);
  w.str(what);
  return w.take();
}

}  // namespace

MeghServer::MeghServer(ServeOptions options) : options_(std::move(options)) {
  MEGH_REQUIRE(options_.replay_to == 0 || options_.read_only,
               "serve: --replay-to requires read-only recovery (a writable "
               "server would fork the WAL chain)");
  std::filesystem::create_directories(options_.dir);
  recover();
}

bool MeghServer::initialized() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return initialized_;
}

std::uint64_t MeghServer::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_ ? wal_->next_seq() : applied_seq_ + 1;
}

// --- recovery -------------------------------------------------------------

void MeghServer::recover() {
  const std::filesystem::path init_path = options_.dir / kInitFile;
  if (!std::filesystem::exists(init_path)) {
    if (!list_wal_segments(options_.dir).empty() ||
        !list_snapshots(options_.dir).empty()) {
      throw IoError(
          "serve: directory has WAL segments or snapshots but no "
          "init.bin — refusing to serve from a damaged directory: " +
          options_.dir.string());
    }
    MEGH_REQUIRE(!options_.read_only,
                 "serve: nothing to recover in " + options_.dir.string());
    return;  // fresh directory; Init will arrive over the wire
  }

  std::ifstream in(init_path, std::ios::binary);
  if (!in) throw IoError("serve: cannot open " + init_path.string());
  const std::vector<std::uint8_t> init_bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const InitRequest init = decode_init(init_bytes);
  const WalScan scan = scan_wal(options_.dir);
  const std::uint64_t dropped = replay(
      init, scan,
      options_.replay_to != 0 ? options_.replay_to
                              : std::numeric_limits<std::uint64_t>::max());
  if (dropped != 0) {
    // The failed apply may have mutated state part-way: rebuild without
    // the record. Every record before it applied once, so it applies again.
    replay(init, scan, dropped - 1);
  }
  recovered_seq_ = applied_seq_;
  if (options_.replay_to != 0 && applied_seq_ != options_.replay_to) {
    throw IoError(strf(
        "serve: --replay-to %llu requested but the journal only reaches "
        "seq %llu",
        static_cast<unsigned long long>(options_.replay_to),
        static_cast<unsigned long long>(applied_seq_)));
  }
  if (!options_.read_only) {
    // Physically drop any torn tail, and the unacknowledged final record,
    // before opening the new segment: once that segment exists, the old
    // one is no longer last, and a later scan would treat its dangling
    // bytes as fatal mid-chain damage.
    heal_torn_tail(scan, options_.fsync);
    if (dropped != 0) {
      truncate_segment(scan.last_record_path, scan.last_record_offset,
                       options_.fsync);
    }
    wal_ = std::make_unique<WalWriter>(options_.dir, applied_seq_ + 1,
                                       options_.fsync);
  }
  MEGH_LOG_INFO(strf(
      "serve: recovered %s to seq %llu (snapshot gen %llu at seq %llu, "
      "%lld records replayed%s%s)",
      options_.dir.string().c_str(),
      static_cast<unsigned long long>(applied_seq_),
      static_cast<unsigned long long>(snapshot_gen_),
      static_cast<unsigned long long>(snapshot_seq_), replayed_records_,
      scan.dropped_torn_tail ? ", torn tail dropped" : "",
      dropped != 0 ? ", unacknowledged final record dropped" : ""));
}

std::uint64_t MeghServer::replay(const InitRequest& init, const WalScan& scan,
                                 std::uint64_t cap) {
  applied_seq_ = 0;
  snapshot_seq_ = 0;
  snapshot_gen_ = 0;
  replayed_records_ = 0;
  apply_init(init);
  initialized_ = true;

  // Newest snapshot that does not overshoot the replay cap.
  std::vector<std::filesystem::path> snaps = list_snapshots(options_.dir);
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const std::uint64_t seq = snapshot_seq_of(*it);
    if (seq > cap) continue;
    load_snapshot(*it);
    break;
  }

  std::vector<MigrationAction> scratch;
  for (const WalRecord& record : scan.records) {
    if (record.seq <= snapshot_seq_) continue;
    if (record.seq > cap) break;
    // scan_wal guarantees continuity within the chain; this guards the
    // joint between the snapshot and the chain's first surviving record.
    if (record.seq != applied_seq_ + 1) {
      throw IoError(strf(
          "serve: WAL chain resumes at seq %llu but recovery reached only "
          "seq %llu — records in between were lost",
          static_cast<unsigned long long>(record.seq),
          static_cast<unsigned long long>(applied_seq_)));
    }
    // A record that does not decode is damage, wherever it sits.
    std::optional<DecideRequest> decide;
    std::optional<ObserveRequest> observe;
    switch (static_cast<MsgType>(record.type)) {
      case MsgType::kDecide:
        decide = decode_decide(record.payload);
        break;
      case MsgType::kObserve:
        observe = decode_observe(record.payload);
        break;
      default:
        throw IoError(strf("serve: WAL record seq %llu has non-mutating "
                           "type %u — journal is corrupt",
                           static_cast<unsigned long long>(record.seq),
                           static_cast<unsigned>(record.type)));
    }
    try {
      if (decide) {
        scratch.clear();
        apply_decide(*decide, scratch);
      } else {
        apply_observe(*observe);
      }
    } catch (const std::exception& e) {
      // A request is acknowledged only after its apply, and a failed apply
      // poisons the writer, so the only unappliable record a live daemon
      // can leave is the final one, and it was never acknowledged.
      if (&record != &scan.records.back()) {
        throw IoError(strf(
            "serve: WAL record seq %llu cannot be applied (%s) but is not "
            "the final record — journal is corrupt",
            static_cast<unsigned long long>(record.seq), e.what()));
      }
      MEGH_LOG_WARN(strf(
          "serve: dropping unacknowledged final WAL record seq %llu: its "
          "apply failed (%s)",
          static_cast<unsigned long long>(record.seq), e.what()));
      return record.seq;
    }
    applied_seq_ = record.seq;
    ++replayed_records_;
  }
  return 0;
}

// --- apply path (shared by live requests and replay) ----------------------

void MeghServer::apply_init(const InitRequest& req) {
  MEGH_REQUIRE(!req.hosts.empty() && !req.vms.empty(),
               "serve: Init with an empty fleet");
  MEGH_REQUIRE(req.host_vms.size() == req.hosts.size(),
               "serve: Init placement list count != host count");
  MEGH_REQUIRE(!req.config.recovery,
               "serve: chaos recovery must stay client-side (the served "
               "policy reconciles faults via the host_of stream)");
  req.cost.validate();
  init_ = req;
  dc_.emplace(req.hosts, req.vms);
  for (std::size_t h = 0; h < req.host_vms.size(); ++h) {
    for (int vm : req.host_vms[h]) {
      dc_->place(vm, static_cast<int>(h));
    }
  }
  if (req.has_network) {
    auto topo =
        std::make_shared<FatTreeTopology>(req.network_k, req.links);
    MEGH_REQUIRE(topo->capacity() >= dc_->num_hosts(),
                 "serve: fat-tree too small for the fleet");
    network_ = std::move(topo);
  } else {
    network_.reset();
  }
  policy_ = std::make_unique<MeghPolicy>(req.config);
  policy_->begin(*dc_, req.cost, req.interval_s);
  steps_ = 0;
}

void MeghServer::validate_decide(const DecideRequest& req) {
  // The carried outcomes are checked against the mirror as it stands; the
  // host_of checks below concern the placement after them.
  if (req.carried) validate_observe(*req.carried);
  const int num_vms = dc_->num_vms();
  const int num_hosts = dc_->num_hosts();
  MEGH_REQUIRE(static_cast<int>(req.vm_util.size()) == num_vms &&
                   static_cast<int>(req.host_util.size()) == num_hosts &&
                   static_cast<int>(req.host_of.size()) == num_vms,
               "serve: Decide shape does not match the fleet");
  MEGH_REQUIRE(req.host_down.empty() ||
                   static_cast<int>(req.host_down.size()) == num_hosts,
               "serve: host_down must be empty or one byte per host");
  for (int h : req.host_of) {
    MEGH_REQUIRE(h >= kUnplaced && h < num_hosts,
                 "serve: host_of entry out of range");
  }
  // RAM-feasibility of the requested final placement, so apply_decide's
  // reconciliation cannot throw mid-mutation on a fleet the engine never
  // realized. The mirror's own occupancy sums are list-order re-sums;
  // this check sums in VM order, so a placement sitting within ulps of
  // the fits() epsilon could still slip through — the poison latch in
  // decide() then keeps the rejection from corrupting anything.
  ram_scratch_.assign(static_cast<std::size_t>(num_hosts), 0.0);
  for (int vm = 0; vm < num_vms; ++vm) {
    const int h = req.host_of[static_cast<std::size_t>(vm)];
    if (h != kUnplaced) {
      ram_scratch_[static_cast<std::size_t>(h)] += dc_->vm_spec(vm).ram_mb;
    }
  }
  for (int h = 0; h < num_hosts; ++h) {
    MEGH_REQUIRE(
        ram_scratch_[static_cast<std::size_t>(h)] <=
            dc_->host_spec(h).ram_mb + 1e-9,
        strf("serve: Decide host_of overfills host %d by RAM", h));
  }
}

void MeghServer::apply_decide(const DecideRequest& req,
                              std::vector<MigrationAction>& out) {
  if (req.carried) apply_observe(*req.carried);
  const int num_vms = dc_->num_vms();

  // Reconcile the placement mirror against the authoritative host_of
  // stream. Two passes — unplace every moved VM first, then place — so a
  // permutation that is only pairwise-infeasible mid-flight still lands
  // (the engine realized the final state, so it is RAM-feasible).
  changed_vms_.clear();
  for (int vm = 0; vm < num_vms; ++vm) {
    if (dc_->host_of(vm) != req.host_of[static_cast<std::size_t>(vm)]) {
      if (dc_->host_of(vm) != kUnplaced) dc_->unplace(vm);
      changed_vms_.push_back(vm);
    }
  }
  for (int vm : changed_vms_) {
    const int target = req.host_of[static_cast<std::size_t>(vm)];
    if (target != kUnplaced) dc_->place(vm, target);
  }
  dc_->set_demands(req.vm_util);

  StepObservation obs;
  obs.step = req.step;
  obs.interval_s = init_.interval_s;
  obs.dc = &*dc_;
  obs.vm_util = req.vm_util;
  // The engine's own values, shipped verbatim — recomputing them here
  // would invite bit drift between served and local decisions.
  obs.host_util = req.host_util;
  obs.last_step_cost = req.last_step_cost;
  obs.cost = &init_.cost;
  obs.network = network_.get();
  obs.host_down = req.host_down;
  obs.exec = nullptr;
  policy_->decide_into(obs, out);
}

void MeghServer::validate_observe(const ObserveRequest& req) {
  const int num_vms = dc_->num_vms();
  const int num_hosts = dc_->num_hosts();
  // Dry-run the applied outcomes against a copy of the mirror's RAM
  // occupancy so apply_observe cannot fail mid-stream. Deltas here vs the
  // mirror's list-order re-sums can disagree within ulps of the fits()
  // epsilon; the poison latch in observe() and decide() covers that residue.
  ram_scratch_.resize(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    ram_scratch_[static_cast<std::size_t>(h)] = dc_->host_ram_used(h);
  }
  moved_scratch_.clear();
  for (const MigrationOutcome& o : req.outcomes) {
    MEGH_REQUIRE(o.vm >= 0 && o.vm < num_vms && o.target_host >= 0 &&
                     o.target_host < num_hosts,
                 "serve: Observe outcome out of range");
    if (o.verdict != MigrationVerdict::kApplied) continue;
    int current = dc_->host_of(o.vm);
    for (const auto& [vm, host] : moved_scratch_) {
      if (vm == o.vm) current = host;
    }
    MEGH_REQUIRE(current != kUnplaced,
                 "serve: Observe applies a migration for an unplaced VM");
    const double ram = dc_->vm_spec(o.vm).ram_mb;
    MEGH_REQUIRE(
        current != o.target_host &&
            ram_scratch_[static_cast<std::size_t>(o.target_host)] + ram <=
                dc_->host_spec(o.target_host).ram_mb + 1e-9,
        "serve: mirror diverged — an applied migration does not fit the "
        "mirrored datacenter");
    ram_scratch_[static_cast<std::size_t>(current)] -= ram;
    ram_scratch_[static_cast<std::size_t>(o.target_host)] += ram;
    moved_scratch_.emplace_back(o.vm, o.target_host);
  }
}

void MeghServer::apply_observe(const ObserveRequest& req) {
  for (const MigrationOutcome& o : req.outcomes) {
    MEGH_REQUIRE(o.vm >= 0 && o.vm < dc_->num_vms() && o.target_host >= 0 &&
                     o.target_host < dc_->num_hosts(),
                 "serve: Observe outcome out of range");
    if (o.verdict == MigrationVerdict::kApplied) {
      const bool moved = dc_->migrate(o.vm, o.target_host);
      MEGH_REQUIRE(moved,
                   "serve: mirror diverged — an applied migration does not "
                   "fit the mirrored datacenter");
    }
  }
  policy_->observe_outcomes(req.outcomes);
  policy_->observe_cost(req.step_cost);
  ++steps_;
}

void MeghServer::poison(const std::string& why) {
  if (poisoned_) return;
  poisoned_ = true;
  poison_reason_ = why;
  if (wal_) wal_->poison(why);
  MEGH_LOG_ERROR("serve: daemon poisoned: " + why);
}

void MeghServer::check_not_poisoned() const {
  if (poisoned_) {
    throw Error("serve: daemon poisoned (" + poison_reason_ +
                ") — in-memory state may have diverged from the journal; "
                "restart to recover the consistent journaled prefix");
  }
}

void MeghServer::journal(MsgType type, std::span<const std::uint8_t> payload,
                         const std::function<void()>& apply) {
  MEGH_REQUIRE(wal_ != nullptr, "serve: journaling without a WAL writer");
  applied_seq_ = wal_->append(static_cast<std::uint16_t>(type), payload, apply);
  ++records_since_compaction_;
}

// --- typed API ------------------------------------------------------------

void MeghServer::init(const InitRequest& req) {
  const std::vector<std::uint8_t> payload = encode_init(req);
  std::lock_guard<std::mutex> lock(mutex_);
  if (initialized_) {
    // Idempotent re-Init: a client reconnecting to a recovered daemon
    // re-sends its fleet; as long as the shape matches, the daemon keeps
    // its learned state (that continuity is the whole point of serving).
    MEGH_REQUIRE(req.hosts.size() ==
                         static_cast<std::size_t>(dc_->num_hosts()) &&
                     req.vms.size() ==
                         static_cast<std::size_t>(dc_->num_vms()),
                 "serve: Init shape does not match the recovered fleet");
    return;
  }
  MEGH_REQUIRE(!options_.read_only, "serve: read-only server");
  check_not_poisoned();
  // Apply before persisting: init.bin is the root of every future
  // recovery, and recovery replays it through this same apply path with
  // no way to skip it — persisting an Init that apply would reject would
  // brick the directory. A throw here leaves initialized_ false and
  // nothing on disk; the partially-built mirror is rebuilt from scratch
  // by the next Init attempt.
  apply_init(req);
  try {
    write_file_atomic(options_.dir / kInitFile, [&](std::ostream& out) {
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
    }, options_.fsync);
    wal_ = std::make_unique<WalWriter>(options_.dir, 1, options_.fsync);
  } catch (...) {
    // Applied but not durable: drop the in-memory state so neither a
    // retry nor a restart can see state that recovery would not rebuild.
    wal_.reset();
    policy_.reset();
    network_.reset();
    dc_.reset();
    init_ = InitRequest{};
    throw;
  }
  applied_seq_ = 0;
  initialized_ = true;
}

DecideResponse MeghServer::decide(const DecideRequest& req,
                                  std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  MEGH_REQUIRE(initialized_, "serve: Decide before Init");
  MEGH_REQUIRE(!options_.read_only, "serve: read-only server");
  check_not_poisoned();
  // Validate → write → apply while the record's fsync runs → ack: a
  // request rejected by validation touches neither state nor journal. A
  // throw after the write means memory may have diverged from the journal
  // — poison so nothing compounds it; a restart replays the clean prefix
  // (and drops this record if its apply is what failed).
  validate_decide(req);
  actions_.clear();
  try {
    journal(MsgType::kDecide, payload, [&] { apply_decide(req, actions_); });
  } catch (const std::exception& e) {
    poison(strf("Decide failed after validation: %s", e.what()));
    throw;
  }
  ++decides_;
  compact_if_due();
  DecideResponse resp;
  resp.actions = actions_;
  fill_policy_stats(resp.stats);
  return resp;
}

ObserveResponse MeghServer::observe(const ObserveRequest& req,
                                    std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  MEGH_REQUIRE(initialized_, "serve: Observe before Init");
  MEGH_REQUIRE(!options_.read_only, "serve: read-only server");
  check_not_poisoned();
  validate_observe(req);
  try {
    journal(MsgType::kObserve, payload, [&] { apply_observe(req); });
  } catch (const std::exception& e) {
    poison(strf("Observe failed after validation: %s", e.what()));
    throw;
  }
  ++observes_;
  compact_if_due();
  ObserveResponse resp;
  fill_policy_stats(resp.stats);
  return resp;
}

CheckpointResponse MeghServer::checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  MEGH_REQUIRE(initialized_, "serve: Checkpoint before Init");
  MEGH_REQUIRE(!options_.read_only, "serve: read-only server");
  // A snapshot of diverged state would outlive the restart that is
  // supposed to heal it — never compact a poisoned daemon.
  check_not_poisoned();
  return compact_locked();
}

StatsResponse MeghServer::stats_response() {
  std::lock_guard<std::mutex> lock(mutex_);
  StatsResponse resp;
  if (initialized_) fill_stats(resp.stats);
  return resp;
}

WalStatusResponse MeghServer::wal_status() {
  std::lock_guard<std::mutex> lock(mutex_);
  WalStatusResponse resp;
  resp.next_seq = wal_ ? wal_->next_seq() : applied_seq_ + 1;
  resp.records_since_compaction = records_since_compaction_;
  resp.snapshot_gen = snapshot_gen_;
  resp.snapshot_seq = snapshot_seq_;
  for (const std::filesystem::path& seg : list_wal_segments(options_.dir)) {
    // Non-throwing stat: a segment can vanish between listing and stat
    // (external cleanup, crash-leftover removal) — skip it rather than
    // turning an admin verb into a raw filesystem_error.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(seg, ec);
    if (ec) continue;
    ++resp.segments;
    resp.wal_bytes += size;
  }
  return resp;
}

void MeghServer::fill_policy_stats(std::vector<StatEntry>& out) {
  stats_scratch_.clear();
  policy_->stats(stats_scratch_);
  out.clear();
  out.reserve(static_cast<std::size_t>(stats_scratch_.size()) + 8);
  for (int i = 0; i < stats_scratch_.size(); ++i) {
    out.push_back(StatEntry{std::string(stats_scratch_.key(i).name()),
                            stats_scratch_.value(i)});
  }
}

void MeghServer::fill_stats(std::vector<StatEntry>& out) {
  fill_policy_stats(out);
  out.push_back(StatEntry{"serve.decides", static_cast<double>(decides_)});
  out.push_back(StatEntry{"serve.observes", static_cast<double>(observes_)});
  out.push_back(StatEntry{"serve.steps", static_cast<double>(steps_)});
  out.push_back(StatEntry{"serve.applied_seq",
                          static_cast<double>(applied_seq_)});
  out.push_back(StatEntry{"serve.snapshot_gen",
                          static_cast<double>(snapshot_gen_)});
  out.push_back(StatEntry{"serve.compactions",
                          static_cast<double>(compactions_)});
  out.push_back(StatEntry{"serve.recovered_seq",
                          static_cast<double>(recovered_seq_)});
  out.push_back(StatEntry{"serve.replayed_records",
                          static_cast<double>(replayed_records_)});
  out.push_back(StatEntry{
      "serve.errors",
      static_cast<double>(errors_.load(std::memory_order_relaxed))});
  out.push_back(StatEntry{"serve.poisoned", poisoned_ ? 1.0 : 0.0});
  out.push_back(StatEntry{
      "serve.fsync_us", wal_ ? static_cast<double>(wal_->fsync_us()) : 0.0});
  out.push_back(StatEntry{
      "serve.sync_wait_us",
      wal_ ? static_cast<double>(wal_->sync_wait_us()) : 0.0});
}

// --- snapshots / compaction ----------------------------------------------

void MeghServer::write_snapshot(std::ostream& out) {
  out << kSnapshotMagic << '\n';
  out << "seq " << applied_seq_ << " steps " << steps_ << '\n';
  const int num_hosts = dc_->num_hosts();
  const int num_vms = dc_->num_vms();
  out << "hosts " << num_hosts << " vms " << num_vms << '\n';
  for (int h = 0; h < num_hosts; ++h) {
    const std::span<const int> vms = dc_->vms_on(h);
    out << "host " << h << ' ' << vms.size();
    for (int vm : vms) out << ' ' << vm;
    out << '\n';
  }
  out << "demands " << num_vms << '\n';
  for (int vm = 0; vm < num_vms; ++vm) {
    out << strf("%.17g", dc_->vm_utilization(vm)) << '\n';
  }
  out << "pending " << policy_->num_pods() << '\n';
  for (int p = 0; p < policy_->num_pods(); ++p) {
    const std::span<const std::int64_t> pending = policy_->pending_actions(p);
    out << pending.size();
    for (std::int64_t idx : pending) out << ' ' << idx;
    out << '\n';
  }
  out << "pending_cost " << strf("%.17g", policy_->pending_cost()) << " has "
      << (policy_->has_pending_cost() ? 1 : 0) << " selected "
      << policy_->migrations_selected() << '\n';
  write_megh_policy(out, *policy_);
  out << "end\n";
}

void MeghServer::load_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("serve: cannot open snapshot: " + path.string());
  read_snapshot_magic(in, path);
  std::string key;
  std::uint64_t seq = 0;
  long long steps = 0;
  if (!(in >> key >> seq) || key != "seq" || !(in >> key >> steps) ||
      key != "steps") {
    throw IoError("serve: malformed snapshot header in " + path.string());
  }
  int num_hosts = 0, num_vms = 0;
  if (!(in >> key >> num_hosts) || key != "hosts" ||
      !(in >> key >> num_vms) || key != "vms") {
    throw IoError("serve: malformed snapshot header in " + path.string());
  }
  MEGH_REQUIRE(num_hosts == static_cast<int>(init_.hosts.size()) &&
                   num_vms == static_cast<int>(init_.vms.size()),
               "serve: snapshot shape does not match init.bin in " +
                   path.string());

  // Rebuild the mirror from specs + the snapshot's ordered placement
  // lists. List-order identity matters: the datacenter's cached sums and
  // the candidate generator both walk these lists, so preserving order is
  // what makes the rebuilt mirror bit-identical to the pre-crash one.
  dc_.emplace(init_.hosts, init_.vms);
  for (int h = 0; h < num_hosts; ++h) {
    int host_id = -1;
    std::size_t count = 0;
    if (!(in >> key >> host_id >> count) || key != "host" || host_id != h) {
      throw IoError(strf("serve: malformed host %d line in snapshot %s", h,
                         path.string().c_str()));
    }
    for (std::size_t k = 0; k < count; ++k) {
      int vm = -1;
      if (!(in >> vm)) {
        throw IoError("serve: truncated placement in " + path.string());
      }
      MEGH_REQUIRE(vm >= 0 && vm < num_vms,
                   "serve: snapshot VM id out of range");
      dc_->place(vm, h);
    }
  }
  std::size_t demand_count = 0;
  if (!(in >> key >> demand_count) || key != "demands" ||
      demand_count != static_cast<std::size_t>(num_vms)) {
    throw IoError("serve: malformed demands section in " + path.string());
  }
  std::vector<double> demands(demand_count);
  for (double& d : demands) {
    if (!(in >> d)) {
      throw IoError("serve: truncated demands in " + path.string());
    }
  }
  dc_->set_demands(demands);

  policy_ = std::make_unique<MeghPolicy>(init_.config);
  policy_->begin(*dc_, init_.cost, init_.interval_s);
  int pods = 0;
  if (!(in >> key >> pods) || key != "pending" ||
      pods != policy_->num_pods()) {
    throw IoError("serve: malformed pending section in " + path.string());
  }
  std::vector<std::vector<std::int64_t>> pending(
      static_cast<std::size_t>(pods));
  for (std::vector<std::int64_t>& actions : pending) {
    std::size_t count = 0;
    if (!(in >> count)) {
      throw IoError("serve: truncated pending actions in " + path.string());
    }
    actions.resize(count);
    for (std::int64_t& idx : actions) {
      if (!(in >> idx)) {
        throw IoError("serve: truncated pending actions in " + path.string());
      }
    }
  }
  double pending_cost = 0.0;
  int has_cost = 0;
  long long selected = 0;
  if (!(in >> key >> pending_cost) || key != "pending_cost" ||
      !(in >> key >> has_cost) || key != "has" || !(in >> key >> selected) ||
      key != "selected") {
    throw IoError("serve: malformed pending_cost line in " + path.string());
  }
  // Skip to the start of the embedded policy checkpoint line.
  std::string rest;
  std::getline(in, rest);

  read_megh_policy(in, *policy_, path.string());
  for (int p = 0; p < pods; ++p) {
    policy_->restore_pending(p, pending[static_cast<std::size_t>(p)]);
  }
  policy_->restore_pending_cost(pending_cost, has_cost != 0, selected);

  std::string tail;
  if (!(in >> tail) || tail != "end") {
    throw IoError("serve: missing end marker in snapshot " + path.string());
  }
  steps_ = steps;
  applied_seq_ = seq;
  snapshot_seq_ = seq;
  snapshot_gen_ = parse_file_number(path);
}

CheckpointResponse MeghServer::compact_locked() {
  MEGH_ASSERT(wal_ != nullptr && wal_->next_seq() == applied_seq_ + 1,
              "serve: WAL out of step with applied state");
  const std::uint64_t gen = snapshot_gen_ + 1;
  const std::uint64_t seq = applied_seq_;
  // A throw here leaves the directory as it was: the temp file is removed
  // and nothing else has been touched.
  write_file_atomic(options_.dir / snapshot_name(gen),
                    [&](std::ostream& out) { write_snapshot(out); },
                    options_.fsync);
  snapshot_gen_ = gen;
  snapshot_seq_ = seq;
  records_since_compaction_ = 0;
  // Rotate so the snapshot boundary coincides with a segment boundary;
  // everything strictly older is then garbage. A failed rotation leaves
  // the writer poisoned, so the daemon can journal nothing more.
  try {
    wal_->rotate(seq + 1);
  } catch (const std::exception& e) {
    poison(strf("WAL rotation after snapshot %llu failed: %s",
                static_cast<unsigned long long>(gen), e.what()));
    throw;
  }
  ++compactions_;

  // GC only after the new snapshot and segment are durable on disk. A
  // failed unlink is logged, not fatal: the file is superseded.
  const auto remove_superseded = [](const std::filesystem::path& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (ec) {
      MEGH_LOG_WARN(strf("serve: cannot remove superseded %s: %s",
                         path.string().c_str(), ec.message().c_str()));
    }
    return !ec;
  };
  // Oldest segment first, stopping at the first failure: recovery scans
  // every segment, and a survivor followed by a gap would fail that scan.
  for (const std::filesystem::path& seg : list_wal_segments(options_.dir)) {
    if (parse_file_number(seg) >= seq + 1 || !remove_superseded(seg)) break;
  }
  for (const std::filesystem::path& snap : list_snapshots(options_.dir)) {
    if (parse_file_number(snap) < gen) remove_superseded(snap);
  }
  CheckpointResponse resp;
  resp.snapshot_gen = gen;
  resp.snapshot_seq = seq;
  return resp;
}

void MeghServer::compact_if_due() {
  // Due at every compact_every-th record since the last compaction, so a
  // failed attempt is retried compact_every records later, not on every
  // request.
  if (options_.compact_every <= 0 ||
      records_since_compaction_ %
              static_cast<std::uint64_t>(options_.compact_every) !=
          0) {
    return;
  }
  try {
    compact_locked();
  } catch (const std::exception& e) {
    MEGH_LOG_ERROR(strf("serve: compaction at seq %llu failed: %s",
                        static_cast<unsigned long long>(applied_seq_),
                        e.what()));
  }
}

void MeghServer::dump_state(std::ostream& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  MEGH_REQUIRE(initialized_, "serve: nothing to dump before Init");
  // A poisoned daemon's memory is not the journaled truth; dumping it
  // would pass divergence off as state. Restart and dump the recovery.
  check_not_poisoned();
  write_snapshot(out);
}

// --- framed dispatch ------------------------------------------------------

std::vector<std::uint8_t> MeghServer::handle(
    MsgType type, std::span<const std::uint8_t> payload) {
  try {
    switch (type) {
      case MsgType::kHello: {
        WireWriter w;
        w.u32(kProtocolVersion);
        return ok_response(w.out());
      }
      case MsgType::kInit:
        init(decode_init(payload));
        return ok_response({});
      case MsgType::kDecide:
        return ok_response(encode_decide_response(
            decide(decode_decide(payload), payload)));
      case MsgType::kObserve:
        return ok_response(
            encode_stats(observe(decode_observe(payload), payload).stats));
      case MsgType::kCheckpoint:
        return ok_response(encode_checkpoint_response(checkpoint()));
      case MsgType::kStats:
        return ok_response(encode_stats(stats_response().stats));
      case MsgType::kWalStatus:
        return ok_response(encode_wal_status(wal_status()));
      case MsgType::kDrain:
      case MsgType::kShutdown:
        // State-wise both are no-ops (the WAL is already durable); the
        // connection layer reacts to the type after sending this ack.
        return ok_response({});
    }
    throw Error(strf("serve: unknown message type %u",
                     static_cast<unsigned>(type)));
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(e.what());
  }
}

}  // namespace megh::serve
