// Client side of the megh_serve protocol: transports, the typed verb
// client (megh_ctl's backend), and RemoteMeghPolicy — a MigrationPolicy
// that forwards every engine callback to a daemon, which is how
// `megh_sim --serve-endpoint` drives a served policy through the ordinary
// simulation loop.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/policy.hpp"

namespace megh::serve {

/// One request/response round trip. Implementations: SocketTransport
/// (serve/socket.hpp) over a Unix domain socket, LocalTransport below for
/// in-process tests and the decide-rate bench, and the recovery tests'
/// kill-switch wrapper.
class ServeTransport {
 public:
  virtual ~ServeTransport() = default;
  /// Send one frame, return the response payload *after* the status byte
  /// has been checked — a nonzero status becomes a thrown Error carrying
  /// the server's message.
  virtual std::vector<std::uint8_t> roundtrip(
      MsgType type, std::span<const std::uint8_t> payload) = 0;
};

/// Splits a response payload into status + body, throwing on error status.
std::vector<std::uint8_t> unwrap_response(
    MsgType type, std::span<const std::uint8_t> response);

/// In-process transport: calls MeghServer::handle directly. Same framing
/// and status handling as the socket path, minus the kernel round trip.
class LocalTransport : public ServeTransport {
 public:
  explicit LocalTransport(MeghServer& server) : server_(&server) {}
  std::vector<std::uint8_t> roundtrip(
      MsgType type, std::span<const std::uint8_t> payload) override {
    return unwrap_response(type, server_->handle(type, payload));
  }

 private:
  MeghServer* server_;
};

/// Typed verbs over any transport.
class ServeClient {
 public:
  explicit ServeClient(std::shared_ptr<ServeTransport> transport)
      : transport_(std::move(transport)) {}

  std::uint32_t hello();
  /// Hello, then throw an Error naming both versions unless the daemon
  /// speaks kProtocolVersion.
  void check_protocol();
  void init(const InitRequest& req);
  DecideResponse decide(const DecideRequest& req);
  ObserveResponse observe(const ObserveRequest& req);
  CheckpointResponse checkpoint();
  std::vector<StatEntry> stats();
  WalStatusResponse wal_status();
  void drain();
  void shutdown();

 private:
  std::shared_ptr<ServeTransport> transport_;
};

/// MigrationPolicy adapter: the engine runs its ordinary step loop over a
/// policy that lives in the daemon. begin() checks the protocol version
/// and ships the fleet (Init). observe_outcomes + observe_cost are
/// buffered, and decide_into() sends them inside the next step's Decide,
/// whose response also carries the policy stats the engine asks for at the
/// end of the step — stats() answers from that cache. A steady-state step
/// therefore costs one round trip and one journal record. The last step's
/// observation has no Decide to ride on: call flush() after the run.
///
/// The cached stats are the policy's as of the Decide, before the step's
/// observation applies; Megh's observe_* change no stat while its fault
/// recovery is off, and the daemon always runs it off.
///
/// Fault-free served runs are bit-identical to running the same MeghConfig
/// locally. Under a fault plan the daemon reconciles forced evacuations
/// through the authoritative host_of stream instead of replaying them,
/// which can order host VM lists differently than the engine's — decisions
/// stay valid and crash-recovery stays exact, but chaos runs are not
/// decision-identical to local ones (documented in docs/SERVING.md).
class RemoteMeghPolicy : public MigrationPolicy {
 public:
  RemoteMeghPolicy(std::shared_ptr<ServeTransport> transport,
                   MeghConfig config,
                   std::shared_ptr<const FatTreeTopology> network = nullptr)
      : client_(std::move(transport)), config_(config),
        network_(std::move(network)) {}

  std::string name() const override { return "Megh(served)"; }
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void observe_cost(double step_cost) override;
  void observe_outcomes(std::span<const MigrationOutcome> outcomes) override;
  void stats(PolicyStats& out) const override;

  /// Send the buffered observation of the last step as one Observe; a
  /// no-op when nothing is pending.
  void flush();

 private:
  /// The observation waiting for the next Decide (created on demand).
  ObserveRequest& pending();

  ServeClient client_;
  MeghConfig config_;
  std::shared_ptr<const FatTreeTopology> network_;
  DecideRequest decide_scratch_;  // .carried holds the pending observation
  std::vector<StatEntry> stats_cache_;
};

}  // namespace megh::serve
