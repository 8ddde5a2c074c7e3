#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "core/megh_policy.hpp"
#include "oracle/dense_matrix.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("megh_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

/// A small fleet with a fixed placement and trace; every call with the
/// same arguments builds the same world.
struct World {
  Datacenter dc;
  TraceTable trace;

  static World make(int hosts, int vms, int steps) {
    Rng rng(7);
    std::vector<VmSpec> specs = sample_vm_fleet(vms, rng);
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng prng(2);
    place_initial(dc, InitialPlacement::kRandom, prng);
    PlanetLabSynthConfig tc;
    tc.num_vms = vms;
    tc.num_steps = steps;
    return {std::move(dc), generate_planetlab(tc)};
  }
};

/// Run `policy` for `steps` steps of a 4-host, 6-VM world (0 = begin only).
void run_small(MeghPolicy& policy, int steps) {
  World w = World::make(4, 6, 8);
  Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
  sim.run(policy, steps);
}

std::string file_contents(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every learner value a restore must reproduce.
void expect_same_learner(const LspiLearner& a, const LspiLearner& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_DOUBLE_EQ(a.gamma(), b.gamma());
  for (std::int64_t i = 0; i < a.dim(); ++i) {
    EXPECT_DOUBLE_EQ(a.q_value(i), b.q_value(i)) << i;
  }
  EXPECT_LT(to_dense(b.B()).max_abs_diff(to_dense(a.B())), 1e-15);
  EXPECT_EQ(a.z().nnz(), b.z().nnz());
}

TEST_F(CheckpointTest, LearnerRoundTripIsExact) {
  MeghConfig config;
  config.seed = 3;
  MeghPolicy original(config);
  run_small(original, 8);
  ASSERT_GT(original.learner().updates(), 0);
  const auto path = dir_ / "learner.ckpt";
  save_megh_policy(original, path);
  MeghPolicy loaded(config);
  run_small(loaded, 0);
  load_megh_policy(loaded, path);
  expect_same_learner(original.learner(), loaded.learner());
}

TEST_F(CheckpointTest, RestoredLearnerContinuesIdentically) {
  MeghConfig config;
  config.seed = 5;
  MeghPolicy a(config);
  run_small(a, 8);
  const auto path = dir_ / "cont.ckpt";
  save_megh_policy(a, path);
  MeghPolicy b(config);
  run_small(b, 0);
  load_megh_policy(b, path);
  // Apply the same update stream to both; they must stay in lockstep.
  LspiLearner& la = a.mutable_pod_learner(0);
  LspiLearner& lb = b.mutable_pod_learner(0);
  const auto dim = static_cast<std::size_t>(la.dim());
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const auto x = static_cast<std::int64_t>(rng.index(dim));
    const auto y = static_cast<std::int64_t>(rng.index(dim));
    const double c = rng.normal();
    la.update(x, c, y);
    lb.update(x, c, y);
  }
  for (std::int64_t q = 0; q < la.dim(); ++q) {
    EXPECT_EQ(la.q_value(q), lb.q_value(q)) << q;
  }
}

TEST_F(CheckpointTest, BadMagicRejected) {
  const auto path = dir_ / "bad.ckpt";
  std::ofstream(path) << "not a checkpoint\n";
  MeghPolicy policy;
  run_small(policy, 0);
  EXPECT_THROW(load_megh_policy(policy, path), ConfigError);
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  MeghPolicy policy;
  run_small(policy, 6);
  const auto path = dir_ / "trunc.ckpt";
  save_megh_policy(policy, path);
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_megh_policy(policy, path), Error);
}

TEST_F(CheckpointTest, MissingFileRejected) {
  MeghPolicy policy;
  run_small(policy, 0);
  EXPECT_THROW(load_megh_policy(policy, dir_ / "nope.ckpt"), IoError);
}

// --- corrupted-checkpoint matrix ------------------------------------------
//
// Each case hand-writes a structurally valid v4 file with one corruption
// and expects a loud IoError instead of a silently wrong learner. The
// baseline is a valid one-pod checkpoint for 3 hosts x 1 VM (d = 3); every
// case is a mutation of it.

class CorruptCheckpointTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    Rng rng(7);
    Datacenter dc(standard_host_fleet(3), sample_vm_fleet(1, rng));
    dc.place(0, 0);
    policy_.begin(dc, CostConfig{}, 300.0);
    // A real actor stream state for the pod's rng line.
    const auto fresh = dir_ / "fresh.ckpt";
    save_megh_policy(policy_, fresh);
    std::istringstream lines(file_contents(fresh));
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("rng ", 0) == 0) rng_line_ = line;
    }
    ASSERT_FALSE(rng_line_.empty());
  }
  std::filesystem::path write(const std::string& text) {
    const auto path = dir_ / "corrupt.ckpt";
    std::ofstream(path) << text;
    return path;
  }
  /// The baseline file; `after_policy` is spliced in right after the
  /// policy line and `after_end` after the end marker.
  std::string valid_file(const std::string& z_lines = "0 1.5\n2 2.5\n",
                         const std::string& offdiag_lines =
                             "0 1 0.25\n1 2 0.5\n",
                         const std::string& after_policy = "",
                         const std::string& after_end = "") const {
    return "megh-checkpoint v4\n"
           "pods 1 hosts 3 vms 1\n"
           "policy 3 0 0\n" + after_policy +
           "pod 0 begin 0 end 3 cap 1 next 1 gamma 0.5\n" + rng_line_ +
           "\nslots 1\n0 0\n"
           "z 2\n" + z_lines +
           "theta 2\n0 0.5\n1 0.75\n"
           "Bdiag 3 default 1\n0 0.4\n1 0.4\n2 0.4\n"
           "Boffdiag 2\n" + offdiag_lines + "end\n" + after_end;
  }
  MeghPolicy policy_;
  std::string rng_line_;
};

TEST_F(CorruptCheckpointTest, ValidBaselineLoads) {
  load_megh_policy(policy_, write(valid_file()));
  const LspiLearner& learner = policy_.learner();
  EXPECT_EQ(learner.dim(), 3);
  EXPECT_DOUBLE_EQ(learner.z().get(2), 2.5);
  EXPECT_DOUBLE_EQ(learner.B().get(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(learner.B().get(2, 2), 0.4);
}

TEST_F(CorruptCheckpointTest, DuplicateVectorIndexRejected) {
  // A second "0 …" line must not silently overwrite the first via set().
  EXPECT_THROW(load_megh_policy(policy_, write(valid_file("0 1.5\n0 2.5\n"))),
               IoError);
}

TEST_F(CorruptCheckpointTest, UnsortedVectorIndexRejected) {
  EXPECT_THROW(load_megh_policy(policy_, write(valid_file("2 1.5\n0 2.5\n"))),
               IoError);
}

TEST_F(CorruptCheckpointTest, DuplicateOffdiagEntryRejected) {
  EXPECT_THROW(
      load_megh_policy(policy_, write(valid_file("0 1.5\n2 2.5\n",
                                                 "0 1 0.25\n0 1 0.5\n"))),
      IoError);
}

TEST_F(CorruptCheckpointTest, UnsortedOffdiagEntryRejected) {
  EXPECT_THROW(
      load_megh_policy(policy_, write(valid_file("0 1.5\n2 2.5\n",
                                                 "1 2 0.5\n0 1 0.25\n"))),
      IoError);
}

TEST_F(CorruptCheckpointTest, DiagonalEntryInOffdiagSectionRejected) {
  EXPECT_THROW(
      load_megh_policy(policy_, write(valid_file("0 1.5\n2 2.5\n",
                                                 "0 1 0.25\n1 1 0.5\n"))),
      IoError);
}

TEST_F(CorruptCheckpointTest, TrailingGarbageRejected) {
  // An nnz count smaller than the real payload would leave the surplus
  // lines unread — learned state silently dropped. Anything between the
  // last section and the end marker, or after the marker, is fatal.
  EXPECT_THROW(load_megh_policy(policy_,
                                write(valid_file("0 1.5\n2 2.5\n",
                                                 "0 1 0.25\n1 2 0.5\n"
                                                 "2 0 0.125\n"))),
               IoError);
  EXPECT_THROW(load_megh_policy(policy_, write(valid_file("0 1.5\n2 2.5\n",
                                                          "0 1 0.25\n1 2 0.5\n",
                                                          "", "leftover\n"))),
               IoError);
}

TEST_F(CorruptCheckpointTest, TrailingGarbageAfterPolicyLineRejected) {
  EXPECT_THROW(load_megh_policy(policy_, write(valid_file("0 1.5\n2 2.5\n",
                                                          "0 1 0.25\n1 2 0.5\n",
                                                          "leftover\n"))),
               IoError);
}

TEST_F(CorruptCheckpointTest, OutOfRangeVectorIndexRejected) {
  EXPECT_THROW(load_megh_policy(policy_, write(valid_file("0 1.5\n7 2.5\n"))),
               Error);
}

TEST_F(CheckpointTest, PolicyWarmStartResumesBehaviour) {
  // Train a Megh policy, checkpoint it, restore into a fresh policy on an
  // identically-shaped datacenter, and verify the restored policy's state
  // (temperature, baseline, Q values) matches.
  MeghConfig config;
  config.seed = 11;
  MeghPolicy trained(config);
  {
    World w = World::make(8, 12, 60);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    sim.run(trained);
  }
  const auto path = dir_ / "policy.ckpt";
  save_megh_policy(trained, path);

  MeghPolicy restored(config);
  {
    // begin() must run before restore so the learner exists with the right
    // shape; run zero steps by asking for a 0-step simulation.
    World w = World::make(8, 12, 60);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    sim.run(restored, 0);
  }
  load_megh_policy(restored, path);
  EXPECT_DOUBLE_EQ(restored.temperature(), trained.temperature());
  EXPECT_DOUBLE_EQ(restored.cost_baseline(), trained.cost_baseline());
  for (std::int64_t a = 0; a < restored.learner().dim(); a += 7) {
    EXPECT_DOUBLE_EQ(restored.learner().q_value(a),
                     trained.learner().q_value(a));
  }
}

TEST_F(CheckpointTest, PolicyRngStreamSurvivesRoundTrip) {
  // The checkpoint serializes the actor's RNG stream (the full engine
  // state): a restored policy's exploration draws continue the saved
  // stream exactly, not a reseeded one — the property megh_serve's
  // crash-exact recovery rests on. Re-saving the restored policy must
  // reproduce the file byte for byte, rng line included.
  MeghConfig config;
  config.seed = 77;
  MeghPolicy a(config);
  run_small(a, 2);
  const auto path = dir_ / "rng.ckpt";
  save_megh_policy(a, path);

  MeghPolicy fresh(config);
  run_small(fresh, 0);
  const auto fresh_path = dir_ / "fresh.ckpt";
  save_megh_policy(fresh, fresh_path);
  ASSERT_NE(file_contents(path), file_contents(fresh_path));

  MeghPolicy b(config);
  run_small(b, 0);
  load_megh_policy(b, path);
  const auto resaved = dir_ / "rng2.ckpt";
  save_megh_policy(b, resaved);
  EXPECT_EQ(file_contents(path), file_contents(resaved));
}

TEST_F(CheckpointTest, FlatPolicyLoaderRejectsV1WithVersionedError) {
  // A bare v1 learner file predates the serialized RNG stream; the loader
  // must refuse it loudly instead of silently keeping a fresh-seeded RNG.
  const auto path = dir_ / "v1.ckpt";
  std::ofstream(path) << "megh-checkpoint v1\ndim 3 gamma 0.5\nz 0\n"
                         "theta 0\nBdiag 3\n1\n1\n1\nBoffdiag 0\n";
  MeghPolicy policy;
  run_small(policy, 0);
  try {
    load_megh_policy(policy, path);
    FAIL() << "v1 file accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, FlatPolicyLoaderRejectsV3WithVersionedError) {
  // The retired flat format (dense B diagonal): refused by version, not by
  // the first structural mismatch.
  const auto path = dir_ / "v3.ckpt";
  std::ofstream(path) << "megh-checkpoint v3\ndim 24 gamma 0.5\nz 0\n"
                         "theta 0\n";
  MeghPolicy policy;
  run_small(policy, 0);
  try {
    load_megh_policy(policy, path);
    FAIL() << "v3 file accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v3"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, CorruptRngLineRejected) {
  MeghPolicy policy;
  run_small(policy, 1);
  const auto path = dir_ / "badrng.ckpt";
  save_megh_policy(policy, path);
  // Replace the rng line's payload with garbage, keeping the key.
  std::string text;
  {
    std::istringstream in(file_contents(path));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("rng ", 0) == 0) line = "rng not-a-state";
      text += line + "\n";
    }
  }
  std::ofstream(path) << text;
  EXPECT_THROW(load_megh_policy(policy, path), IoError);
}

TEST_F(CheckpointTest, FuzzedVersionHeaderRejected) {
  MeghPolicy policy;
  run_small(policy, 0);
  for (const char* header :
       {"megh-checkpoint v9", "megh-checkpoint v0", "megh-checkpoint vx",
        "megh-checkpoint", "megh-checkpoint v4x"}) {
    const auto path = dir_ / "fuzz.ckpt";
    std::ofstream(path) << header << "\npods 1 hosts 4 vms 6\n";
    EXPECT_THROW(load_megh_policy(policy, path), ConfigError) << header;
  }
}

TEST_F(CheckpointTest, WarmStartAdapterSurvivesSecondBegin) {
  // megh_sim's old warm start loaded the checkpoint after a priming
  // 0-step run; the real run's begin() then rebuilt a fresh learner and
  // silently discarded the load. The adapter re-loads inside begin(), so
  // the warm start holds no matter how many times the engine begins.
  MeghConfig config;
  config.seed = 13;
  MeghPolicy trained(config);
  run_small(trained, 6);
  const auto path = dir_ / "warm.ckpt";
  save_megh_policy(trained, path);

  WarmStartMeghPolicy warm(config, path);
  EXPECT_EQ(warm.name(), "Megh");
  {
    World w = World::make(4, 6, 8);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    sim.run(warm, 0);  // first begin()
    sim.run(warm, 0);  // second begin() must not wipe the warm start
  }
  EXPECT_DOUBLE_EQ(warm.temperature(), trained.temperature());
  EXPECT_DOUBLE_EQ(warm.cost_baseline(), trained.cost_baseline());
  expect_same_learner(trained.learner(), warm.pod_learner(0));
}

TEST_F(CheckpointTest, PolicyShapeMismatchRejected) {
  MeghConfig config;
  MeghPolicy small(config), big(config);
  run_small(small, 2);
  const auto path = dir_ / "shape.ckpt";
  save_megh_policy(small, path);
  {
    World w = World::make(4, 8, 4);
    Simulation sim(std::move(w.dc), w.trace, SimulationConfig{});
    sim.run(big, 2);
  }
  EXPECT_THROW(load_megh_policy(big, path), ConfigError);
}

// --- kill/restore ----------------------------------------------------------

/// Drive `policy` through steps [from, to) of `trace` on `dc` without the
/// engine: demands, decide, apply, and a cost derived from the resulting
/// state. Returns every emitted action as (step, vm, target).
std::vector<std::array<int, 3>> drive(MigrationPolicy& policy, Datacenter& dc,
                                      const TraceTable& trace, int from,
                                      int to) {
  const CostConfig cost;
  std::vector<double> vm_util(static_cast<std::size_t>(dc.num_vms()));
  std::vector<double> host_util;
  std::vector<MigrationAction> actions;
  std::vector<std::array<int, 3>> log;
  for (int step = from; step < to; ++step) {
    for (int vm = 0; vm < dc.num_vms(); ++vm) {
      vm_util[static_cast<std::size_t>(vm)] = trace.at(vm, step);
    }
    dc.set_demands(vm_util);
    dc.all_host_utilization(host_util);
    StepObservation obs;
    obs.step = step;
    obs.interval_s = 300.0;
    obs.dc = &dc;
    obs.vm_util = vm_util;
    obs.host_util = host_util;
    obs.cost = &cost;
    actions.clear();
    policy.decide_into(obs, actions);
    for (const MigrationAction& a : actions) {
      if (dc.migrate(a.vm, a.target_host)) {
        log.push_back({step, a.vm, a.target_host});
      }
    }
    dc.all_host_utilization(host_util);
    double step_cost = 0.0;
    for (double u : host_util) step_cost += u > cost.beta_overload ? 1.0 : u;
    policy.observe_cost(step_cost);
  }
  return log;
}

TEST_F(CheckpointTest, FlatKillRestoreContinuesBitIdentically) {
  // Kill flat Megh mid-run and restore it from its v4 checkpoint (plus the
  // open SARSA transition, which the serving daemon snapshots alongside):
  // the restored policy must make exactly the decisions the survivor
  // makes from there on.
  MeghConfig config;
  config.seed = 21;
  config.max_migration_fraction = 0.2;
  World w = World::make(12, 20, 80);
  MeghPolicy survivor(config);
  survivor.begin(w.dc, CostConfig{}, 300.0);
  const auto before = drive(survivor, w.dc, w.trace, 0, 40);
  ASSERT_FALSE(before.empty());
  const auto path = dir_ / "kill.ckpt";
  save_megh_policy(survivor, path);

  Datacenter dc = w.dc;  // the fleet as the killed process left it
  MeghPolicy restored(config);
  restored.begin(dc, CostConfig{}, 300.0);
  load_megh_policy(restored, path);
  restored.restore_pending(0, survivor.pending_actions(0));
  restored.restore_pending_cost(survivor.pending_cost(),
                                survivor.has_pending_cost(),
                                survivor.migrations_selected());

  const auto a = drive(survivor, w.dc, w.trace, 40, 80);
  const auto b = drive(restored, dc, w.trace, 40, 80);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  expect_same_learner(survivor.learner(), restored.learner());
  PolicyStats sa, sb;
  survivor.stats(sa);
  restored.stats(sb);
  EXPECT_EQ(sa.at("migrations_selected"), sb.at("migrations_selected"));
  EXPECT_EQ(sa.at("temperature"), sb.at("temperature"));
}

}  // namespace
}  // namespace megh
