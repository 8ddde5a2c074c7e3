#include "core/checkpoint.hpp"

#include <fstream>
#include <string>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

namespace megh {

namespace {

constexpr const char* kMagic = "megh-checkpoint v4";
constexpr int kVersion = 4;

/// Consume the magic line and return the format version it declares.
/// Throws ConfigError when the line is not a megh checkpoint magic at all.
int read_checkpoint_version(std::istream& in, const std::string& context) {
  std::string magic;
  std::getline(in, magic);
  const std::string_view trimmed = trim(magic);
  constexpr std::string_view kPrefix = "megh-checkpoint v";
  if (!starts_with(trimmed, kPrefix)) {
    throw ConfigError("not a megh checkpoint (bad magic): " + context);
  }
  int version = 0;
  const std::string_view digits = trimmed.substr(kPrefix.size());
  if (digits.empty()) {
    throw ConfigError("not a megh checkpoint (bad magic): " + context);
  }
  for (char c : digits) {
    if (c < '0' || c > '9') {
      throw ConfigError("not a megh checkpoint (bad magic): " + context);
    }
    version = version * 10 + (c - '0');
  }
  return version;
}

/// What each retired format version held — the actionable half of the
/// version-mismatch ConfigError.
std::string version_hint(int version) {
  switch (version) {
    case 1:
      return " (v1 held one bare flat learner without the actor's RNG "
             "stream)";
    case 2:
      return " (v2 held the hierarchical container before per-pod RNG "
             "streams were serialized)";
    case 3:
      return " (v3 held a flat policy with a dense B diagonal; flat Megh "
             "now checkpoints as the one-pod v4 container)";
    default:
      return "";
  }
}

void write_vector(std::ostream& out, const char* tag, const SparseVector& v) {
  out << tag << ' ' << v.nnz() << '\n';
  for (const auto& [i, value] : v.entries()) {
    out << i << ' ' << strf("%.17g", value) << '\n';
  }
}

SparseVector read_vector(std::istream& in, const char* tag,
                         std::int64_t dim, const std::string& context) {
  std::string name;
  std::size_t nnz = 0;
  if (!(in >> name >> nnz) || name != tag) {
    throw IoError("checkpoint: expected section '" + std::string(tag) +
                  "' in " + context);
  }
  SparseVector v(dim);
  v.reserve(nnz);
  // The writer emits entries in strictly ascending index order; demand the
  // same on the way in. Accepting duplicates or unsorted lines would let a
  // corrupted file silently overwrite earlier entries via set().
  std::int64_t prev = -1;
  for (std::size_t k = 0; k < nnz; ++k) {
    std::int64_t i = 0;
    double value = 0.0;
    if (!(in >> i >> value)) {
      throw IoError("checkpoint: truncated section '" + std::string(tag) +
                    "' in " + context);
    }
    MEGH_REQUIRE(i >= 0 && i < dim,
                 "checkpoint: index out of range in " + context);
    if (i <= prev) {
      throw IoError("checkpoint: duplicate or unsorted index " +
                    std::to_string(i) + " in section '" + std::string(tag) +
                    "' in " + context);
    }
    prev = i;
    v.push_back(i, value);
  }
  return v;
}

struct PolicyLine {
  double temperature;
  double baseline;
  bool initialized;
};

void write_policy_line(std::ostream& out, double temperature, double baseline,
                       bool initialized) {
  out << "policy " << strf("%.17g", temperature) << ' '
      << strf("%.17g", baseline) << ' ' << (initialized ? 1 : 0) << '\n';
}

PolicyLine read_policy_line(std::istream& in, const std::string& context) {
  std::string key;
  double temp = 0.0, baseline = 0.0;
  int initialized = 0;
  if (!(in >> key >> temp >> baseline >> initialized) || key != "policy") {
    throw IoError("checkpoint: malformed policy line in " + context);
  }
  return PolicyLine{temp, baseline, initialized != 0};
}

void write_rng_line(std::ostream& out, const Rng& rng) {
  out << "rng ";
  rng.save(out);
  out << '\n';
}

void read_rng_line(std::istream& in, Rng& rng, const std::string& context) {
  std::string key;
  if (!(in >> key) || key != "rng") {
    throw IoError("checkpoint: malformed rng line in " + context);
  }
  try {
    rng.load(in);
  } catch (const IoError& e) {
    throw IoError("checkpoint: " + std::string(e.what()) + " in " + context);
  }
}


}  // namespace

void write_megh_policy(std::ostream& out,
                       const HierarchicalMeghPolicy& policy) {
  MEGH_REQUIRE(!policy.pods_.empty(), "write_megh_policy before begin()");
  out << kMagic << '\n';
  out << "pods " << policy.num_pods() << " hosts "
      << policy.basis_->num_hosts() << " vms " << policy.basis_->num_vms()
      << '\n';
  write_policy_line(out, policy.temperature(), policy.cost_baseline(),
                    policy.baseline_initialized());
  for (int p = 0; p < policy.num_pods(); ++p) {
    const auto& pod = policy.pods_[static_cast<std::size_t>(p)];
    const LspiLearner& learner = *pod.learner;
    out << "pod " << p << " begin " << pod.host_begin << " end "
        << pod.host_end << " cap " << pod.cap << " next " << pod.next_slot
        << " gamma " << strf("%.17g", learner.gamma()) << '\n';
    write_rng_line(out, pod.rng);
    int occupied = 0;
    for (int slot = 0; slot < pod.next_slot; ++slot) {
      if (pod.vm_of_slot[static_cast<std::size_t>(slot)] >= 0) ++occupied;
    }
    out << "slots " << occupied << '\n';
    for (int slot = 0; slot < pod.next_slot; ++slot) {
      const int vm = pod.vm_of_slot[static_cast<std::size_t>(slot)];
      if (vm >= 0) out << slot << ' ' << vm << '\n';
    }
    write_vector(out, "z", learner.z());
    write_vector(out, "theta", learner.theta());
    // Only materialized rows — a virgin row reads as default_diag·I, and
    // at pod dims ~10⁷ writing a dense diagonal would turn a kilobyte
    // checkpoint into a multi-hundred-megabyte one. Rows come out sorted
    // by column, so checkpoints are deterministic and reloading them hits
    // SparseMatrix's fast sorted-append path.
    const SparseMatrix& B = learner.B();
    const std::vector<SparseMatrix::Index> live = B.live_row_indices();
    out << "Bdiag " << live.size() << " default "
        << strf("%.17g", B.default_diag()) << '\n';
    for (const SparseMatrix::Index r : live) {
      out << r << ' ' << strf("%.17g", B.get(r, r)) << '\n';
    }
    out << "Boffdiag " << B.offdiag_nnz() << '\n';
    SparseVector row(B.dim());
    for (const SparseMatrix::Index r : live) {
      B.row_into(r, row);
      for (const auto& [c, value] : row.entries()) {
        if (c == r) continue;
        out << r << ' ' << c << ' ' << strf("%.17g", value) << '\n';
      }
    }
  }
  out << "end\n";
}

void read_megh_policy(std::istream& in, HierarchicalMeghPolicy& policy,
                      const std::string& context) {
  MEGH_REQUIRE(!policy.pods_.empty(), "read_megh_policy before begin()");
  const int version = read_checkpoint_version(in, context);
  if (version != kVersion) {
    throw ConfigError(strf("checkpoint %s is format v%d, but Megh reads only "
                           "the v%d container%s",
                           context.c_str(), version, kVersion,
                           version_hint(version).c_str()));
  }
  std::string key;
  int pods = 0, hosts = 0, vms = 0;
  if (!(in >> key >> pods) || key != "pods" || !(in >> key >> hosts) ||
      key != "hosts" || !(in >> key >> vms) || key != "vms") {
    throw IoError("checkpoint: malformed header in " + context);
  }
  MEGH_REQUIRE(pods == policy.num_pods() &&
                   hosts == policy.basis_->num_hosts() &&
                   vms == policy.basis_->num_vms(),
               strf("checkpoint shape (%d pods, %d hosts, %d VMs) does not "
                    "match the policy (%d pods, %d hosts, %d VMs)",
                    pods, hosts, vms, policy.num_pods(),
                    policy.basis_->num_hosts(), policy.basis_->num_vms()));
  const PolicyLine pl = read_policy_line(in, context);

  // All VM → pod/slot assignments are rebuilt from the file; entries of
  // VMs the checkpoint does not map stay unassigned and are re-slotted by
  // the next membership rebuild.
  std::fill(policy.pod_of_vm_.begin(), policy.pod_of_vm_.end(), -1);
  std::fill(policy.slot_of_vm_.begin(), policy.slot_of_vm_.end(), -1);

  for (int p = 0; p < pods; ++p) {
    auto& pod = policy.pods_[static_cast<std::size_t>(p)];
    const std::string pod_context = context + strf(" (pod %d)", p);
    int pod_id = -1, begin = 0, end = 0, cap = 0, next = 0;
    double gamma = 0.0;
    if (!(in >> key >> pod_id) || key != "pod" || !(in >> key >> begin) ||
        key != "begin" || !(in >> key >> end) || key != "end" ||
        !(in >> key >> cap) || key != "cap" || !(in >> key >> next) ||
        key != "next" || !(in >> key >> gamma) || key != "gamma") {
      throw IoError("checkpoint: malformed pod header in " + pod_context);
    }
    MEGH_REQUIRE(pod_id == p, "checkpoint: pods out of order");
    MEGH_REQUIRE(begin == pod.host_begin && end == pod.host_end,
                 strf("checkpoint pod %d hosts [%d, %d) does not match the "
                      "policy's shard [%d, %d)",
                      p, begin, end, pod.host_begin, pod.host_end));
    MEGH_REQUIRE(cap > 0 && next >= 0 && next <= cap,
                 "checkpoint: pod slot counts out of range");
    MEGH_REQUIRE(gamma >= 0.0 && gamma < 1.0,
                 "checkpoint: gamma out of range");
    read_rng_line(in, pod.rng, pod_context);

    // Slot-indexed scratch follows the restored capacity; transient
    // recovery state does not survive the process boundary.
    policy.reset_pod_slots(pod, cap);
    pod.next_slot = next;
    pod.free_slots.clear();
    int occupied = 0;
    if (!(in >> key >> occupied) || key != "slots" || occupied < 0 ||
        occupied > next) {
      throw IoError("checkpoint: malformed slots section in " + pod_context);
    }
    int prev_slot = -1;
    for (int k = 0; k < occupied; ++k) {
      int slot = 0, vm = 0;
      if (!(in >> slot >> vm)) {
        throw IoError("checkpoint: truncated slot map in " + pod_context);
      }
      MEGH_REQUIRE(slot > prev_slot && slot < next,
                   "checkpoint: slot map out of order or out of range");
      MEGH_REQUIRE(vm >= 0 && vm < vms, "checkpoint: VM id out of range");
      MEGH_REQUIRE(policy.pod_of_vm_[static_cast<std::size_t>(vm)] == -1,
                   "checkpoint: VM mapped twice");
      prev_slot = slot;
      pod.vm_of_slot[static_cast<std::size_t>(slot)] = vm;
      policy.pod_of_vm_[static_cast<std::size_t>(vm)] =
          static_cast<std::int32_t>(p);
      policy.slot_of_vm_[static_cast<std::size_t>(vm)] =
          static_cast<std::int32_t>(slot);
    }
    // Handed-out-but-unoccupied slots go back on the free list,
    // descending so the smallest is reused first (same as the runtime).
    for (int slot = next - 1; slot >= 0; --slot) {
      if (pod.vm_of_slot[static_cast<std::size_t>(slot)] < 0) {
        pod.free_slots.push_back(slot);
      }
    }

    const std::int64_t dim = static_cast<std::int64_t>(cap) *
                             static_cast<std::int64_t>(end - begin);
    SparseVector z = read_vector(in, "z", dim, pod_context);
    SparseVector theta = read_vector(in, "theta", dim, pod_context);

    std::int64_t live = 0;
    double default_diag = 0.0;
    if (!(in >> key >> live) || key != "Bdiag" ||
        !(in >> key >> default_diag) || key != "default" || live < 0 ||
        live > dim) {
      throw IoError("checkpoint: malformed Bdiag section in " + pod_context);
    }
    SparseMatrix B(dim, default_diag);
    std::int64_t prev = -1;
    for (std::int64_t k = 0; k < live; ++k) {
      std::int64_t r = 0;
      double value = 0.0;
      if (!(in >> r >> value)) {
        throw IoError("checkpoint: truncated Bdiag in " + pod_context);
      }
      MEGH_REQUIRE(r >= 0 && r < dim,
                   "checkpoint: Bdiag index out of range in " + pod_context);
      if (r <= prev) {
        throw IoError("checkpoint: duplicate or unsorted Bdiag row " +
                      std::to_string(r) + " in " + pod_context);
      }
      prev = r;
      B.set(r, r, value);
    }
    std::size_t offdiag = 0;
    if (!(in >> key >> offdiag) || key != "Boffdiag") {
      throw IoError("checkpoint: malformed Boffdiag section in " +
                    pod_context);
    }
    // Triplets come out of the writer row-major with ascending columns,
    // i.e. strictly lexicographically ascending (r, c); demand that order
    // so a corrupted file cannot silently overwrite an earlier entry.
    std::int64_t prev_r = -1, prev_c = -1;
    for (std::size_t k = 0; k < offdiag; ++k) {
      std::int64_t r = 0, c = 0;
      double value = 0.0;
      if (!(in >> r >> c >> value)) {
        throw IoError("checkpoint: truncated Boffdiag in " + pod_context);
      }
      MEGH_REQUIRE(r >= 0 && r < dim && c >= 0 && c < dim,
                   "checkpoint: B index out of range in " + pod_context);
      if (r == c) {
        throw IoError("checkpoint: diagonal entry (" + std::to_string(r) +
                      ", " + std::to_string(c) + ") in Boffdiag section in " +
                      pod_context);
      }
      if (r < prev_r || (r == prev_r && c <= prev_c)) {
        throw IoError("checkpoint: duplicate or unsorted Boffdiag entry (" +
                      std::to_string(r) + ", " + std::to_string(c) +
                      ") in " + pod_context);
      }
      prev_r = r;
      prev_c = c;
      B.set(r, c, value);
    }

    // The begun learner's dimensions may differ (its cap came from the
    // current placement, the file's from the saved one): rebuild at the
    // file's shape, then restore the exact state.
    pod.learner = std::make_unique<LspiLearner>(
        dim, gamma, policy.config_.base.delta, kMaxUpdateSupport);
    pod.learner->restore(std::move(B), std::move(z), std::move(theta));
  }
  std::string tail;
  if (!(in >> tail) || tail != "end") {
    throw IoError("checkpoint: missing end marker in " + context);
  }
  policy.selector_.set_temperature(pl.temperature);
  policy.cost_baseline_ = pl.baseline;
  policy.baseline_initialized_ = pl.initialized;
  policy.emitted_.clear();
  policy.has_pending_cost_ = false;
}

void save_megh_policy(const HierarchicalMeghPolicy& policy,
                      const std::filesystem::path& path) {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_megh_policy(out, policy); });
}

void load_megh_policy(HierarchicalMeghPolicy& policy,
                      const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open checkpoint: " + path.string());
  read_megh_policy(in, policy, path.string());
  // Anything after the end marker means the counts above were corrupted (a
  // short nnz silently drops learned state) or the file was concatenated.
  std::string tail;
  if (in >> tail) {
    throw IoError("checkpoint: trailing data '" + tail + "' in " +
                  path.string());
  }
}

}  // namespace megh
