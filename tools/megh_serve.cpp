// megh_serve — the durable policy-as-a-service daemon (docs/SERVING.md).
// Serves the Megh policy over a Unix domain socket, journaling every
// learner update to a write-ahead log before acknowledging it, so a
// kill -9 at any instant recovers to the exact pre-kill policy state.
//
// Examples:
//   megh_serve --dir /var/lib/megh --socket /run/megh.sock
//   megh_serve --dir state --socket megh.sock --compact-every 1000
//   megh_serve --dir state --recover-only            # audit: replay + exit
//   megh_serve --dir state --recover-only --dump -   # dump state to stdout
//   megh_serve --dir ref --recover-only --replay-to 742 --dump ref.state
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/args.hpp"
#include "common/error.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace {

megh::serve::SocketServer* g_listener = nullptr;

void handle_signal(int) {
  if (g_listener != nullptr) g_listener->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("dir", "serve directory (WAL + snapshots; created if absent)",
                "");
  args.add_flag("socket", "Unix domain socket path to listen on",
                "megh_serve.sock");
  args.add_flag("compact-every",
                "compact on the request that journals this many WAL records "
                "since the last compaction (0 = only on explicit checkpoint "
                "requests)", "4096");
  args.add_bool("no-fsync",
                "skip fsync on WAL appends and snapshots (bench mode; "
                "durability is NOT guaranteed)");
  args.add_bool("recover-only",
                "recover from --dir, print the recovered seq, exit without "
                "serving (the directory is not modified)");
  args.add_flag("replay-to",
                "with --recover-only: stop replay after this WAL seq "
                "(0 = replay everything)", "0");
  args.add_flag("dump",
                "with --recover-only: write the recovered state dump here "
                "('-' = stdout)", "");
  try {
    if (!args.parse(argc, argv)) return 0;
    MEGH_REQUIRE(!args.get("dir").empty(), "--dir is required");

    serve::ServeOptions options;
    options.dir = args.get("dir");
    options.compact_every = static_cast<int>(args.get_int("compact-every"));
    options.fsync = !args.get_bool("no-fsync");

    if (args.get_bool("recover-only")) {
      options.read_only = true;
      options.replay_to =
          static_cast<std::uint64_t>(args.get_int("replay-to"));
      serve::MeghServer server(options);
      std::printf("recovered seq %llu\n",
                  static_cast<unsigned long long>(server.recovered_seq()));
      const std::string dump = args.get("dump");
      if (!dump.empty()) {
        if (dump == "-") {
          server.dump_state(std::cout);
        } else {
          std::ofstream out(dump);
          if (!out) throw IoError("megh_serve: cannot open --dump " + dump);
          server.dump_state(out);
          out.flush();
          if (!out) throw IoError("megh_serve: write to --dump failed");
          std::printf("dumped state to %s\n", dump.c_str());
        }
      }
      return 0;
    }
    MEGH_REQUIRE(args.get_int("replay-to") == 0,
                 "--replay-to requires --recover-only");
    MEGH_REQUIRE(args.get("dump").empty(),
                 "--dump requires --recover-only");

    serve::MeghServer server(options);
    serve::SocketServer listener(server, args.get("socket"));
    g_listener = &listener;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    listener.run();
    g_listener = nullptr;
    std::printf("megh_serve: shut down cleanly (next seq %llu)\n",
                static_cast<unsigned long long>(server.next_seq()));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "megh_serve: %s\n", e.what());
    return 1;
  }
}
