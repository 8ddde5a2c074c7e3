// Policy checkpointing: persist and restore Megh's learned state so a
// scheduler can be warm-started after a restart or migrated between
// control-plane nodes — "learn as you go" without forgetting on redeploy.
//
// One format, v4, for flat and hierarchical Megh alike (flat Megh is the
// one-pod case). It is versioned plain text; the loader parses the version
// out of the magic line and rejects any other generation — v1 (a bare flat
// learner), v2 (the pre-RNG per-pod container) and v3 (a flat policy with
// a dense B diagonal) — with a ConfigError that names the version found,
// instead of tripping over the first structural difference downstream. The
// file writer goes through write_file_atomic (common/atomic_file.hpp):
// temp file, fsync, rename — a crash mid-save never destroys the previous
// checkpoint.
//
//   megh-checkpoint v4
//   pods <P> hosts <M> vms <N>
//   policy <temp> <baseline> <initialized>
//   then per pod:
//     pod <p> begin <b> end <e> cap <c> next <n> gamma <g>
//     rng <mt19937_64 stream state>
//     slots <occupied> followed by "slot vm" lines (ascending slot)
//     z <nnz> followed by "index value" lines (pod-local indices)
//     theta <nnz> ...
//     Bdiag <live> default <d0> followed by "index value" lines — only
//       materialized rows are stored against the lazy default, because a
//       cluster-scale pod operator's dense diagonal would dwarf its
//       learned support
//     Boffdiag <nnz> followed by "row col value" triplets
//   end
// Every index list is strictly ascending; duplicates, unsorted or
// out-of-range entries and trailing data are rejected. The rng lines are
// what make restore exact: a restored policy's Boltzmann draws continue the
// saved streams bit-for-bit, so a warm-started run is indistinguishable
// from one that never stopped (the property the serving daemon's crash
// recovery is built on; see src/serve). Plain text keeps the files
// diffable and the loader trivially fuzzable; storing only materialized
// rows keeps them small at any scale.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "core/hierarchical_megh.hpp"

namespace megh {

/// Checkpoint a begun policy (every pod's learner, slot map and actor RNG
/// stream plus the shared temperature and advantage baseline) as v4.
/// Throws IoError on I/O failure.
void save_megh_policy(const HierarchicalMeghPolicy& policy,
                      const std::filesystem::path& path);

/// Restore into a policy begun on a fleet of the same shape and shard plan
/// (pod count and host ranges must match; per-pod slot capacities come
/// from the file). Throws IoError on parse failure and ConfigError on a
/// version or shape mismatch. The open SARSA transition is reset — it is
/// transient, not learned state (the serving daemon restores it itself).
void load_megh_policy(HierarchicalMeghPolicy& policy,
                      const std::filesystem::path& path);

/// Stream-level variants of save_megh_policy / load_megh_policy, shared
/// with the serving daemon's snapshot writer (which embeds the v4 section
/// inside its own state file). The reader stops after the section's "end"
/// line; `context` names the source in errors (a path, "<socket>", ...).
void write_megh_policy(std::ostream& out,
                       const HierarchicalMeghPolicy& policy);
void read_megh_policy(std::istream& in, HierarchicalMeghPolicy& policy,
                      const std::string& context);

/// Warm-start adapter: a Megh policy whose begin() loads a checkpoint right
/// after the base begin(). The engine calls begin() at the top of every
/// Simulation::run — a plain policy loaded before run() silently loses the
/// restored state when begin() rebuilds the learners. The adapter makes
/// `megh_sim --checkpoint-load` (and any other run-a-restored-policy
/// caller) correct by construction.
class WarmStartMeghPolicy : public HierarchicalMeghPolicy {
 public:
  /// Flat Megh (the one-pod layout of MeghPolicy).
  WarmStartMeghPolicy(const MeghConfig& config,
                      std::filesystem::path checkpoint)
      : HierarchicalMeghPolicy(config, OnePod{}),
        checkpoint_(std::move(checkpoint)) {}
  /// Hierarchical Megh.
  WarmStartMeghPolicy(const HierarchicalMeghConfig& config,
                      std::filesystem::path checkpoint)
      : HierarchicalMeghPolicy(config), checkpoint_(std::move(checkpoint)) {}

  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override {
    HierarchicalMeghPolicy::begin(dc, cost, interval_s);
    load_megh_policy(*this, checkpoint_);
  }

 private:
  std::filesystem::path checkpoint_;
};

}  // namespace megh
