// ddp_launch: localhost multi-process launcher — the repo's torchrun.
//
// Spawns N copies of a worker binary, one OS process per rank (the paper's
// deployment unit, §3.3), hosts the TCP rendezvous store in the launcher
// process (so a kill -9'd worker can never take the store down with it),
// exports the launch contract to every child
//
//   DDPKIT_RANK, DDPKIT_WORLD, DDPKIT_STORE_HOST, DDPKIT_STORE_PORT
//
// forwards every child's stdout/stderr line-by-line with a "[rank N]"
// prefix (and into per-rank log files when --log-dir is set, which the CI
// multiprocess leg uploads as artifacts on failure), and reaps children
// into a typed exit report. --log-dir is created if missing; if a rank's
// log file still cannot be opened the launcher exits 1 before spawning
// anything, so a run never silently loses its logs.
//
// Exit status: 0 iff every rank exited 0 — except ranks named by
// --allow-kill, which may die by signal (chaos tests kill -9 a rank on
// purpose; the launcher must not count the planned murder as a failure,
// while still failing on any *unplanned* death).
//
// Usage:
//   ddp_launch --nproc=N [--timeout-sec=T] [--log-dir=DIR]
//              [--allow-kill=R] -- worker [worker args...]
//
// ddplint: allow-file(banned-nondeterminism) reason: process supervision
// is wall-clock by nature (children progress in real time only).
// ddplint: allow-file(raw-wire-io) reason: read() here drains child
// stdout/stderr pipes, not peer wire traffic; the store the workers
// rendezvous through speaks comm/net_socket.h framing.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "comm/chaos_spec.h"
#include "comm/store_tcp.h"

namespace {

struct LaunchOptions {
  int nproc = 0;
  double timeout_sec = 300.0;
  std::string log_dir;
  int allow_kill = -1;  // rank allowed to die by signal, -1 = none
  /// Wire-fault spec (chaos_spec.h grammar), exported to every worker as
  /// DDPKIT_CHAOS_WIRE; DDPKIT_CHAOS_SEED (inherited) seeds `rand` faults.
  std::string chaos;
  std::vector<std::string> worker_argv;
};

void PrintUsage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --nproc=N [--timeout-sec=T] [--log-dir=DIR] "
               "[--allow-kill=R] [--chaos=SPEC] -- worker [worker args...]\n"
               "  SPEC example: partition:2x3@step5,heal@step8\n",
               prog);
}

bool ParseArgs(int argc, char** argv, LaunchOptions* options) {
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    }
    if (arg == "-n" && i + 1 < argc) {
      options->nproc = std::atoi(argv[++i]);
    } else if (arg.rfind("--nproc=", 0) == 0) {
      options->nproc = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--timeout-sec=", 0) == 0) {
      options->timeout_sec = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--log-dir=", 0) == 0) {
      options->log_dir = arg.substr(10);
    } else if (arg.rfind("--allow-kill=", 0) == 0) {
      options->allow_kill = std::atoi(arg.c_str() + 13);
    } else if (arg.rfind("--chaos=", 0) == 0) {
      options->chaos = arg.substr(8);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  for (; i < argc; ++i) options->worker_argv.emplace_back(argv[i]);
  if (options->nproc <= 0 || options->worker_argv.empty()) return false;
  return true;
}

/// Drains one child's merged stdout/stderr pipe, forwarding complete lines
/// prefixed with the rank tag and mirroring them into the per-rank log
/// file (when open). Runs until the child closes its end (exit or kill).
void ForwardLogs(int fd, int rank, std::FILE* log_file) {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      const size_t nl = pending.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = pending.substr(start, nl - start);
      std::fprintf(stdout, "[rank %d] %s\n", rank, line.c_str());
      if (log_file != nullptr) {
        std::fprintf(log_file, "%s\n", line.c_str());
      }
      start = nl + 1;
    }
    pending.erase(0, start);
    std::fflush(stdout);
    if (log_file != nullptr) std::fflush(log_file);
  }
  if (!pending.empty()) {
    std::fprintf(stdout, "[rank %d] %s\n", rank, pending.c_str());
    if (log_file != nullptr) std::fprintf(log_file, "%s\n", pending.c_str());
  }
  std::fflush(stdout);
  close(fd);
}

struct Child {
  pid_t pid = -1;
  int rank = -1;
  bool reaped = false;
  int wait_status = 0;
};

/// Creates --log-dir (and its parents) and opens every rank's log file, or
/// explains on stderr why not and returns false. Runs before anything is
/// spawned: a launch that cannot keep its logs does not start. The files
/// are close-on-exec, so workers do not inherit each other's logs.
bool OpenLogFiles(const LaunchOptions& options,
                  std::vector<std::FILE*>* log_files) {
  log_files->assign(static_cast<size_t>(options.nproc), nullptr);
  if (options.log_dir.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(options.log_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ddp_launch: cannot create --log-dir %s: %s\n",
                 options.log_dir.c_str(), ec.message().c_str());
    return false;
  }
  for (int rank = 0; rank < options.nproc; ++rank) {
    const std::string path =
        options.log_dir + "/rank" + std::to_string(rank) + ".log";
    std::FILE* f = std::fopen(path.c_str(), "we");
    if (f == nullptr) {
      std::fprintf(stderr, "ddp_launch: cannot open %s: %s\n", path.c_str(),
                   std::strerror(errno));
      for (std::FILE* open : *log_files) {
        if (open != nullptr) std::fclose(open);
      }
      return false;
    }
    (*log_files)[static_cast<size_t>(rank)] = f;
  }
  return true;
}

int RunLauncher(const LaunchOptions& options) {
  using ddpkit::comm::StoreServerTcp;
  std::vector<std::FILE*> log_files;
  if (!OpenLogFiles(options, &log_files)) return 1;
  auto server = StoreServerTcp::Start("127.0.0.1", 0);
  if (!server.ok()) {
    std::fprintf(stderr, "ddp_launch: store server failed to start: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  std::fprintf(stdout, "ddp_launch: store on 127.0.0.1:%d, world %d\n",
               server.value()->port(), options.nproc);

  if (!options.chaos.empty()) {
    // Validate the spec up front (a typo must die here, not as N cryptic
    // worker failures) and log the canonical plan so any chaos run can be
    // replayed from its launcher output alone.
    const uint64_t seed = ddpkit::comm::ReadWireChaosEnv().seed;
    auto plan = ddpkit::comm::ParseWireChaosSpec(options.chaos, seed,
                                                 options.nproc);
    if (!plan.ok()) {
      std::fprintf(stderr, "ddp_launch: bad --chaos spec: %s\n",
                   plan.status().message().c_str());
      return 1;
    }
    std::fprintf(stdout, "ddp_launch: wire chaos (seed %llu):\n%s",
                 static_cast<unsigned long long>(seed),
                 plan.value().DebugString().c_str());
    setenv("DDPKIT_CHAOS_WIRE", options.chaos.c_str(), 1);
  }

  std::vector<Child> children(static_cast<size_t>(options.nproc));
  std::vector<std::thread> log_threads;

  for (int rank = 0; rank < options.nproc; ++rank) {
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      std::fprintf(stderr, "ddp_launch: pipe() failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "ddp_launch: fork() failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      // Child: merge stdout+stderr into the pipe, export the contract,
      // become the worker.
      close(pipe_fds[0]);
      dup2(pipe_fds[1], STDOUT_FILENO);
      dup2(pipe_fds[1], STDERR_FILENO);
      close(pipe_fds[1]);
      setenv("DDPKIT_RANK", std::to_string(rank).c_str(), 1);
      setenv("DDPKIT_WORLD", std::to_string(options.nproc).c_str(), 1);
      setenv("DDPKIT_STORE_HOST", "127.0.0.1", 1);
      setenv("DDPKIT_STORE_PORT",
             std::to_string(server.value()->port()).c_str(), 1);
      std::vector<char*> argv;
      argv.reserve(options.worker_argv.size() + 1);
      for (const std::string& arg : options.worker_argv) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execvp(argv[0], argv.data());
      std::fprintf(stderr, "execvp(%s) failed: %s\n", argv[0],
                   std::strerror(errno));
      _exit(127);
    }
    close(pipe_fds[1]);
    children[static_cast<size_t>(rank)] = Child{pid, rank, false, 0};
    log_threads.emplace_back(ForwardLogs, pipe_fds[0], rank,
                             log_files[static_cast<size_t>(rank)]);
  }

  // Reap with a wall deadline; past it, kill the stragglers (a hung rank
  // must become a typed report, not a hung CI job).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options.timeout_sec);
  int unreaped = options.nproc;
  bool timed_out = false;
  while (unreaped > 0) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      for (Child& child : children) {
        if (child.pid == pid && !child.reaped) {
          child.reaped = true;
          child.wait_status = status;
          --unreaped;
          break;
        }
      }
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      timed_out = true;
      for (const Child& child : children) {
        if (!child.reaped) kill(child.pid, SIGKILL);
      }
      for (Child& child : children) {
        if (child.reaped) continue;
        int st = 0;
        if (waitpid(child.pid, &st, 0) == child.pid) {
          child.reaped = true;
          child.wait_status = st;
          --unreaped;
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : log_threads) t.join();
  for (std::FILE* f : log_files) {
    if (f != nullptr) std::fclose(f);
  }
  server.value()->Stop();

  // Typed exit report.
  int failures = 0;
  for (const Child& child : children) {
    const int status = child.wait_status;
    if (!child.reaped) {
      std::fprintf(stdout, "ddp_launch: rank %d UNREAPED\n", child.rank);
      ++failures;
    } else if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      std::fprintf(stdout, "ddp_launch: rank %d exited %d%s\n", child.rank,
                   code, code == 0 ? "" : " (FAILED)");
      if (code != 0) ++failures;
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      const bool planned = child.rank == options.allow_kill;
      std::fprintf(stdout, "ddp_launch: rank %d killed by signal %d%s\n",
                   child.rank, sig,
                   planned ? " (planned by --allow-kill)" : " (FAILED)");
      if (!planned) ++failures;
    } else {
      std::fprintf(stdout, "ddp_launch: rank %d unknown wait status %d\n",
                   child.rank, status);
      ++failures;
    }
  }
  if (timed_out) {
    std::fprintf(stdout,
                 "ddp_launch: TIMEOUT after %.0fs, stragglers killed\n",
                 options.timeout_sec);
  }
  std::fflush(stdout);
  if (failures > 0 || timed_out) {
    std::fprintf(stderr, "ddp_launch: %d rank(s) failed%s\n", failures,
                 timed_out ? " (launch timeout)" : "");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  LaunchOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage(argc > 0 ? argv[0] : "ddp_launch");
    return 1;
  }
  // A dying worker mid-write must not kill the launcher.
  signal(SIGPIPE, SIG_IGN);
  return RunLauncher(options);
}
