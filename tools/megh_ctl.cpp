// megh_ctl — admin client for a running megh_serve daemon.
//
//   megh_ctl stats      --socket megh.sock   # policy + serve counters
//   megh_ctl wal-status --socket megh.sock   # journal / snapshot positions
//   megh_ctl checkpoint --socket megh.sock   # force a compaction now
//   megh_ctl drain      --socket megh.sock   # stop accepting new clients
//   megh_ctl shutdown   --socket megh.sock   # clean shutdown
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "serve/client.hpp"
#include "serve/socket.hpp"

namespace {

constexpr const char kVerbs[] =
    "stats | checkpoint | wal-status | drain | shutdown";

}  // namespace

int main(int argc, char** argv) {
  using namespace megh;
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr, "usage: megh_ctl <%s> --socket <path>\n", kVerbs);
    return argc < 2 ? 1 : 0;
  }
  const std::string verb = argv[1];
  Args args;
  args.add_flag("socket", "daemon's Unix domain socket", "megh_serve.sock");
  args.add_flag("connect-timeout-ms",
                "how long to retry while the daemon starts", "5000");
  try {
    // argv[1] is the verb; hand Args the rest.
    if (!args.parse(argc - 1, argv + 1)) return 0;

    serve::ServeClient client(std::make_shared<serve::SocketTransport>(
        args.get("socket"),
        static_cast<int>(args.get_int("connect-timeout-ms"))));
    client.check_protocol();

    if (verb == "stats") {
      for (const serve::StatEntry& entry : client.stats()) {
        std::printf("%-40s %.17g\n", entry.name.c_str(), entry.value);
      }
    } else if (verb == "checkpoint") {
      const serve::CheckpointResponse resp = client.checkpoint();
      std::printf("checkpointed: snapshot gen %llu at seq %llu\n",
                  static_cast<unsigned long long>(resp.snapshot_gen),
                  static_cast<unsigned long long>(resp.snapshot_seq));
    } else if (verb == "wal-status") {
      const serve::WalStatusResponse resp = client.wal_status();
      std::printf("next seq                 %llu\n",
                  static_cast<unsigned long long>(resp.next_seq));
      std::printf("records since compaction %llu\n",
                  static_cast<unsigned long long>(
                      resp.records_since_compaction));
      std::printf("wal segments             %llu\n",
                  static_cast<unsigned long long>(resp.segments));
      std::printf("wal bytes                %llu\n",
                  static_cast<unsigned long long>(resp.wal_bytes));
      std::printf("snapshot gen             %llu\n",
                  static_cast<unsigned long long>(resp.snapshot_gen));
      std::printf("snapshot seq             %llu\n",
                  static_cast<unsigned long long>(resp.snapshot_seq));
    } else if (verb == "drain") {
      client.drain();
      std::printf("draining: no new connections will be accepted\n");
    } else if (verb == "shutdown") {
      client.shutdown();
      std::printf("shutdown acknowledged\n");
    } else {
      throw ConfigError(strf("unknown verb '%s' (%s)", verb.c_str(), kVerbs));
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "megh_ctl: %s\n", e.what());
    return 1;
  }
}
