// Peak-RSS readings, and a megh_serve daemon run as a child process for one
// benchmark round: fresh serve directory and socket, fsync on, always reaped.
#pragma once

#include <filesystem>
#include <string>

#include <sys/types.h>

namespace perfbench {

/// Peak resident set (VmHWM) in MiB of process `proc` ("self" or a pid);
/// 0 once the process is gone.
double peak_rss_mb(const std::string& proc);
/// Restart this process's VmHWM from its current resident set.
void reset_peak_rss();

class Daemon {
 public:
  /// Spawns `binary` serving `dir`/state on `dir`/d.sock, with its output
  /// in `dir`/daemon.log. `dir` must not exist yet.
  Daemon(const std::string& binary, const std::filesystem::path& dir,
         int compact_every);
  /// Kills the daemon if it is still running, then reaps it.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::filesystem::path& dir() const { return dir_; }
  const std::filesystem::path& socket() const { return socket_; }
  /// The daemon's peak_rss_mb(); 0 once it is reaped.
  double peak_rss_mb() const;
  /// Wait up to `timeout_ms` for the daemon to exit on its own (after a
  /// Shutdown request); kills it past the deadline. True on a clean exit.
  bool wait_exit(int timeout_ms);

 private:
  pid_t pid_ = -1;
  std::filesystem::path dir_;
  std::filesystem::path socket_;
};

}  // namespace perfbench
