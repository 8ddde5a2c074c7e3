// End-to-end over a real Unix domain socket: listener thread, framed
// transport, the admin verbs megh_ctl uses, and drain/shutdown lifecycle.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh::serve {
namespace {

class SocketServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // sun_path is ~108 bytes; keep the socket name short and unique.
    root_ = std::filesystem::temp_directory_path() /
            ("megh_sock_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    socket_path_ = root_ / "s.sock";
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
  std::filesystem::path socket_path_;
};

TEST_F(SocketServeTest, ServesSimulationAndAdminVerbsOverSocket) {
  ServeOptions options;
  options.dir = root_ / "state";
  options.compact_every = 10;
  options.fsync = false;
  MeghServer server(options);
  SocketServer listener(server, socket_path_);
  std::thread listen_thread([&] { listener.run(); });

  const int kSteps = 8;
  {
    auto transport = std::make_shared<SocketTransport>(socket_path_);
    ServeClient client(transport);
    EXPECT_EQ(client.hello(), kProtocolVersion);

    MeghConfig config;
    config.seed = 21;
    RemoteMeghPolicy policy(transport, config);
    Rng rng(5);
    std::vector<VmSpec> specs = sample_vm_fleet(10, rng);
    Datacenter dc(standard_host_fleet(6), specs);
    Rng prng(2);
    place_initial(dc, InitialPlacement::kRandom, prng);
    PlanetLabSynthConfig tc;
    tc.num_vms = 10;
    tc.num_steps = kSteps;
    const TraceTable trace = generate_planetlab(tc);
    Simulation sim(std::move(dc), trace, SimulationConfig{});
    sim.run(policy, kSteps);
    policy.flush();

    // Admin verbs on a second connection, mid-flight style. One record per
    // step, each Decide carrying the previous step's outcomes, plus the
    // flush of the last step.
    ServeClient admin(std::make_shared<SocketTransport>(socket_path_));
    const WalStatusResponse wal = admin.wal_status();
    EXPECT_EQ(wal.next_seq, static_cast<std::uint64_t>(kSteps + 2));
    const CheckpointResponse ckpt = admin.checkpoint();
    EXPECT_EQ(ckpt.snapshot_seq, static_cast<std::uint64_t>(kSteps + 1));
    std::map<std::string, double> stats;
    for (const StatEntry& s : admin.stats()) stats[s.name] = s.value;
    EXPECT_EQ(stats["serve.decides"], static_cast<double>(kSteps));
    EXPECT_EQ(stats["serve.observes"], 1.0);
    EXPECT_EQ(stats["serve.steps"], static_cast<double>(kSteps));
    admin.drain();
    // Draining refuses new connections but keeps this one alive.
    EXPECT_NO_THROW(admin.wal_status());
    admin.shutdown();
  }
  listen_thread.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path_))
      << "listener should remove its socket file on the way out";
}

TEST_F(SocketServeTest, ServerErrorBecomesClientException) {
  ServeOptions options;
  options.dir = root_ / "state";
  options.fsync = false;
  MeghServer server(options);
  SocketServer listener(server, socket_path_);
  std::thread listen_thread([&] { listener.run(); });
  {
    auto transport = std::make_shared<SocketTransport>(socket_path_);
    ServeClient client(transport);
    // Decide before Init must come back as a thrown Error, and the
    // connection (and daemon) must survive it.
    EXPECT_THROW(client.decide(DecideRequest{}), Error);
    EXPECT_EQ(client.hello(), kProtocolVersion);
    client.shutdown();
  }
  listen_thread.join();
}

TEST_F(SocketServeTest, FinishedConnectionThreadsAreReaped) {
  // A long-lived daemon serving many short-lived clients must join
  // finished connection threads as it goes, not hoard them until
  // shutdown. The accept loop reaps before each new connection, so a
  // stream of connect/close cycles must drive reaped_connections() up.
  ServeOptions options;
  options.dir = root_ / "state";
  options.fsync = false;
  MeghServer server(options);
  SocketServer listener(server, socket_path_);
  std::thread listen_thread([&] { listener.run(); });

  // Each iteration completes a round trip (so the server definitely
  // processed the connection) and then closes it; the next accept can
  // then reap it once its thread has wound down.
  for (int i = 0; i < 200 && listener.reaped_connections() < 5; ++i) {
    ServeClient client(std::make_shared<SocketTransport>(socket_path_));
    EXPECT_EQ(client.hello(), kProtocolVersion);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(listener.reaped_connections(), 5u)
      << "accept loop never joined finished connection threads";

  ServeClient admin(std::make_shared<SocketTransport>(socket_path_));
  admin.shutdown();
  listen_thread.join();
}

TEST_F(SocketServeTest, ConnectToMissingSocketTimesOutWithError) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(SocketTransport(root_ / "absent.sock", 150), IoError);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace megh::serve
