#include "campaign/process.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace streamlab::campaign {
namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

int encode_wait_status(int wstatus) {
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  if (WIFSIGNALED(wstatus)) return 128 + WTERMSIG(wstatus);
  return 255;
}

}  // namespace

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
  }
  close_fds();
}

void ChildProcess::close_fds() {
  for (int* fd : {&stdin_fd_, &stdout_fd_, &stderr_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

bool ChildProcess::spawn(const std::vector<std::string>& argv,
                         const std::vector<std::string>& extra_env) {
  // Respawning reuses the ChildProcess object: drop any previous child's
  // pipe ends (the child itself was reaped by the caller).
  close_fds();
  spawn_error_.clear();
  stderr_tail_.clear();
  exit_status_ = 0;

  int in_pipe[2] = {-1, -1};   // parent writes [1] -> child stdin [0]
  int out_pipe[2] = {-1, -1};  // child stdout [1] -> parent reads [0]
  int err_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
    spawn_error_ = std::string("pipe: ") + std::strerror(errno);
    for (int* p : {in_pipe, out_pipe, err_pipe})
      for (int i = 0; i < 2; ++i)
        if (p[i] >= 0) ::close(p[i]);
    return false;
  }

  const int pid = ::fork();
  if (pid < 0) {
    spawn_error_ = std::string("fork: ") + std::strerror(errno);
    for (int* p : {in_pipe, out_pipe, err_pipe})
      for (int i = 0; i < 2; ++i) ::close(p[i]);
    return false;
  }

  if (pid == 0) {
    // Child: wire the pipe ends onto 0/1/2 and exec. Only async-signal-safe
    // calls between fork and exec.
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    ::dup2(err_pipe[1], 2);
    for (int* p : {in_pipe, out_pipe, err_pipe})
      for (int i = 0; i < 2; ++i) ::close(p[i]);

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    for (const std::string& e : extra_env) ::putenv(const_cast<char*>(e.c_str()));
    ::execv(cargv[0], cargv.data());
    // Exec failed; 127 is the shell convention for "command not found".
    ::_exit(127);
  }

  // Parent.
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  pid_ = pid;
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  stderr_fd_ = err_pipe[0];
  for (int fd : {stdin_fd_, stdout_fd_, stderr_fd_}) set_cloexec(fd);
  set_nonblock(stdout_fd_);
  set_nonblock(stderr_fd_);
  return true;
}

bool ChildProcess::write_all(const std::string& data) {
  if (stdin_fd_ < 0) return false;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(stdin_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void ChildProcess::drain_stderr() {
  if (stderr_fd_ < 0) return;
  char buf[1024];
  while (true) {
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // EAGAIN, EOF, or error — all mean "no more now"
    stderr_tail_.append(buf, static_cast<std::size_t>(n));
    if (stderr_tail_.size() > kStderrTailBytes)
      stderr_tail_.erase(0, stderr_tail_.size() - kStderrTailBytes);
  }
}

void ChildProcess::close_stdin() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
}

void ChildProcess::kill(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
}

bool ChildProcess::try_reap() {
  if (pid_ <= 0) return true;
  int wstatus = 0;
  const int r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_) {
    exit_status_ = encode_wait_status(wstatus);
    pid_ = -1;
    return true;
  }
  if (r < 0 && errno != EINTR) {
    // ECHILD: someone else collected it; treat as gone.
    pid_ = -1;
    return true;
  }
  return false;
}

void ChildProcess::reap(int grace_ms) {
  if (pid_ <= 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (!try_reap()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid_, &wstatus, 0);
      exit_status_ = encode_wait_status(wstatus);
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace streamlab::campaign
