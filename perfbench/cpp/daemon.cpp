#include "daemon.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>

#include "common/error.hpp"

extern char** environ;

namespace perfbench {

Daemon::Daemon(const std::string& binary, const std::filesystem::path& dir,
               int compact_every)
    : dir_(dir), socket_(dir / "d.sock") {
  MEGH_REQUIRE(!std::filesystem::exists(dir),
               "serve scratch directory already exists: " + dir.string());
  std::filesystem::create_directories(dir);
  const std::string log = (dir / "daemon.log").string();
  std::vector<std::string> args = {binary,
                                   "--dir", (dir / "state").string(),
                                   "--socket", socket_.string(),
                                   "--compact-every",
                                   std::to_string(compact_every)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw megh::IoError("cannot start daemon " + binary);
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double peak_rss_mb(const std::string& proc) {
  std::ifstream in("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Hand freed heap back first, so the new peak starts from what is live.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? perfbench::peak_rss_mb(std::to_string(pid_)) : 0.0;
}

bool Daemon::wait_exit(int timeout_ms) {
  if (pid_ <= 0) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

}  // namespace perfbench
