// POSIX child-process plumbing for distributed campaign workers.
//
// A ChildProcess owns three pipe ends after spawn(): a write fd connected
// to the child's stdin (frames in), and nonblocking read fds for the
// child's stdout (frames out) and stderr. Stderr is drained into a bounded
// tail ring so a crashed worker's last words survive into the quarantine
// record without an unbounded buffer. Reaping encodes the wait status the
// way shells do: exit code for a normal exit, 128+signal for a killed
// child — one int that fits the manifest's worker_exit_status field.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace streamlab::campaign {

/// Bytes of child stderr retained (the *tail* — older output is dropped).
inline constexpr std::size_t kStderrTailBytes = 4096;

class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Forks and execs `argv` (argv[0] is the binary path) with `extra_env`
  /// entries ("NAME=value") appended to the inherited environment. Child
  /// stdin/stdout/stderr are piped; the parent-side stdout/stderr fds are
  /// set O_NONBLOCK. Returns false (with errno-derived detail in
  /// spawn_error()) if the pipes or fork fail; an exec failure surfaces as
  /// an immediate child exit with status 127.
  bool spawn(const std::vector<std::string>& argv,
             const std::vector<std::string>& extra_env = {});

  bool running() const { return pid_ > 0; }
  int pid() const { return pid_; }
  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }
  int stderr_fd() const { return stderr_fd_; }
  const std::string& spawn_error() const { return spawn_error_; }

  /// Writes all of `data` to the child's stdin. Returns false on any
  /// error (including EPIPE from a dead child — SIGPIPE must be ignored
  /// by the caller's process, which the coordinator arranges).
  bool write_all(const std::string& data);

  /// Drains whatever is currently readable from the child's stderr into
  /// the bounded tail. Safe to call on a closed fd (no-op).
  void drain_stderr();

  /// The retained stderr tail (at most kStderrTailBytes).
  const std::string& stderr_tail() const { return stderr_tail_; }

  /// Closes the parent's write end so the child sees EOF on stdin.
  void close_stdin();

  /// Sends `sig` to the child if it is still running.
  void kill(int sig);

  /// Nonblocking reap. Returns true once the child has been collected;
  /// exit_status() is then valid and running() turns false.
  bool try_reap();

  /// Blocking reap with SIGKILL escalation after `grace_ms`.
  void reap(int grace_ms);

  /// Shell-style wait status: exit code if exited, 128+signal if killed.
  int exit_status() const { return exit_status_; }

 private:
  void close_fds();

  int pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int stderr_fd_ = -1;
  int exit_status_ = 0;
  std::string stderr_tail_;
  std::string spawn_error_;
};

}  // namespace streamlab::campaign
