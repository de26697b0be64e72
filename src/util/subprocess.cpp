#include "lcda/util/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace lcda::util {

namespace {

int waitpid_retry(pid_t pid, int* status, int flags) {
  for (;;) {
    const pid_t r = ::waitpid(pid, status, flags);
    if (r >= 0 || errno != EINTR) return static_cast<int>(r);
  }
}

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL);
  (void)::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

// A write into a pipe whose reader died raises SIGPIPE, which would kill
// the coordinator; with the signal ignored the write returns EPIPE and
// write_stdin() reports the dead worker as `false`. Process-wide and
// sticky, installed once on first stdin-pipe use.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// dup2 for the fork child: `fd` becomes `target` without close-on-exec
/// (dup2 onto itself would keep the flag, so clear it explicitly).
void redirect(int fd, int target) {
  if (fd == target) {
    (void)::fcntl(fd, F_SETFD, 0);
  } else {
    ::dup2(fd, target);
  }
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

std::string Subprocess::Result::describe() const {
  char buf[64];
  if (term_signal != 0) {
    std::snprintf(buf, sizeof(buf), "signal %d", term_signal);
  } else {
    std::snprintf(buf, sizeof(buf), "exit %d", exit_code);
  }
  return buf;
}

Subprocess::Subprocess(std::vector<std::string> argv)
    : Subprocess(std::move(argv), Options{}) {}

Subprocess::Subprocess(std::vector<std::string> argv, const Options& options) {
  if (argv.empty()) throw std::invalid_argument("Subprocess: empty argv");
  if (options.pipe_stdin) ignore_sigpipe_once();

  int err_fds[2] = {-1, -1};
  int out_fds[2] = {-1, -1};
  int in_fds[2] = {-1, -1};
  auto fail = [&](const char* what) {
    const int saved = errno;
    for (int* p : {err_fds, out_fds, in_fds}) {
      if (p[0] >= 0) ::close(p[0]);
      if (p[1] >= 0) ::close(p[1]);
    }
    throw std::runtime_error(std::string("Subprocess: ") + what + ": " +
                             ::strerror(saved));
  };
  // Close-on-exec everywhere: a sibling spawned later must not inherit
  // this child's pipe ends, or the child would never see EOF on stdin
  // once the parent closes it.
  if (::pipe2(err_fds, O_CLOEXEC) != 0) fail("pipe");
  if (options.pipe_stdout && ::pipe2(out_fds, O_CLOEXEC) != 0) fail("pipe");
  if (options.pipe_stdin && ::pipe2(in_fds, O_CLOEXEC) != 0) fail("pipe");

  const pid_t pid = ::fork();
  if (pid < 0) fail("fork");

  if (pid == 0) {
    // Child: lead a process group of its own, so stop() can signal every
    // descendant at once, then wire up its ends and close every other
    // descriptor: files the parent opened without close-on-exec (any
    // std::ofstream) are not the child's to hold. Only async-signal-safe
    // calls between fork and exec.
    ::setpgid(0, 0);
    redirect(err_fds[1], STDERR_FILENO);
    if (out_fds[1] >= 0) redirect(out_fds[1], STDOUT_FILENO);
    if (in_fds[0] >= 0) redirect(in_fds[0], STDIN_FILENO);
    (void)::close_range(3, ~0U, 0);

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());

    // Exec failed: report through the (now redirected) stderr and use the
    // shell's 127 so the parent can tell "no such program" from a crash.
    const char* msg = "Subprocess: exec failed: ";
    (void)!::write(STDERR_FILENO, msg, ::strlen(msg));
    (void)!::write(STDERR_FILENO, cargv[0], ::strlen(cargv[0]));
    (void)!::write(STDERR_FILENO, "\n", 1);
    ::_exit(127);
  }

  // Parent. Setting the group here too closes the race where stop() runs
  // before the child got to its own setpgid. Every retained end is
  // non-blocking: reads drain what is available without stalling the
  // coordinator's poll loop (wait() blocks in poll() instead of in read())
  // and stdin writes spill to stdin_pending_ instead of blocking on a full
  // pipe.
  (void)::setpgid(pid, pid);
  ::close(err_fds[1]);
  set_nonblocking(err_fds[0]);
  pid_ = pid;
  stderr_fd_ = err_fds[0];
  if (options.pipe_stdout) {
    ::close(out_fds[1]);
    set_nonblocking(out_fds[0]);
    stdout_fd_ = out_fds[0];
  }
  if (options.pipe_stdin) {
    ::close(in_fds[0]);
    set_nonblocking(in_fds[1]);
    stdin_fd_ = in_fds[1];
  }
}

Subprocess::~Subprocess() {
  if (waited_ || pid_ < 0) return;
  (void)stop(kDestructGraceMs);
}

bool Subprocess::drain_available() {
  if (stderr_eof_ || stderr_fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // EOF (or an unrecoverable error): no more stderr will arrive.
    stderr_eof_ = true;
    close_if_open(stderr_fd_);
    return false;
  }
}

bool Subprocess::drain_stdout_available() {
  if (stdout_eof_ || stdout_fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n > 0) {
      stdout_buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    stdout_eof_ = true;
    close_if_open(stdout_fd_);
    return false;
  }
}

bool Subprocess::flush_stdin() {
  if (stdin_broken_) return false;
  if (stdin_fd_ < 0) return stdin_pending_.empty();
  std::size_t off = 0;
  while (off < stdin_pending_.size()) {
    const ssize_t n = ::write(stdin_fd_, stdin_pending_.data() + off,
                              stdin_pending_.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE (reader gone) or an unrecoverable error: the channel is dead.
    stdin_broken_ = true;
    close_if_open(stdin_fd_);
    stdin_pending_.clear();
    return false;
  }
  stdin_pending_.erase(0, off);
  return true;
}

bool Subprocess::write_stdin(std::string_view data) {
  if (stdin_broken_) return false;
  if (stdin_fd_ < 0) {
    throw std::logic_error("Subprocess: write_stdin without pipe_stdin");
  }
  stdin_pending_.append(data.data(), data.size());
  return flush_stdin();
}

void Subprocess::close_stdin() {
  (void)flush_stdin();
  stdin_pending_.clear();
  close_if_open(stdin_fd_);
}

std::string Subprocess::read_stdout() {
  if (stdout_fd_ < 0 && !stdout_eof_ && stdout_buffer_.empty()) {
    throw std::logic_error("Subprocess: read_stdout without pipe_stdout");
  }
  (void)flush_stdin();
  (void)drain_stdout_available();
  std::string out = std::move(stdout_buffer_);
  stdout_buffer_.clear();
  return out;
}

std::string Subprocess::take_stderr() {
  (void)drain_available();
  std::string out = std::move(buffer_);
  buffer_.clear();
  return out;
}

void Subprocess::close_parent_fds() {
  close_if_open(stderr_fd_);
  close_if_open(stdout_fd_);
  close_if_open(stdin_fd_);
  stderr_eof_ = true;
  stdout_eof_ = true;
}

Subprocess::Result Subprocess::reap() {
  waited_ = true;
  Result result;
  result.stderr_output = std::move(buffer_);
  buffer_.clear();

  int status = 0;
  if (waitpid_retry(pid_, &status, 0) < 0) {
    throw std::runtime_error(std::string("Subprocess: waitpid: ") +
                             ::strerror(errno));
  }
  close_parent_fds();
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = -1;
    result.term_signal = WTERMSIG(status);
  }
  result_ = result;
  return result;
}

Subprocess::Result Subprocess::wait() {
  if (waited_) throw std::logic_error("Subprocess: wait() called twice");

  // Block until both capture pipes report EOF — the child (and any
  // inheritors of its streams) are gone — then reap.
  for (;;) {
    const bool err_open = drain_available();
    const bool out_open = drain_stdout_available();
    if (!err_open && !out_open) break;
    struct pollfd pfds[2];
    nfds_t n = 0;
    if (err_open) pfds[n++] = {stderr_fd_, POLLIN, 0};
    if (out_open) pfds[n++] = {stdout_fd_, POLLIN, 0};
    (void)::poll(pfds, n, -1);
  }
  return reap();
}

std::optional<Subprocess::Result> Subprocess::try_wait() {
  if (waited_) return result_;  // already reaped: idempotent
  (void)flush_stdin();
  (void)drain_available();
  (void)drain_stdout_available();
  int status = 0;
  const int r = waitpid_retry(pid_, &status, WNOHANG);
  if (r == 0) return std::nullopt;  // still running
  if (r < 0) {
    throw std::runtime_error(std::string("Subprocess: waitpid: ") +
                             ::strerror(errno));
  }
  // Exited: the pipes can only hold already-buffered bytes now; drain to
  // EOF (a still-open descendant holding a write end would report
  // EAGAIN — accept what we have rather than block a poll loop).
  (void)drain_available();
  (void)drain_stdout_available();
  waited_ = true;
  Result result;
  result.stderr_output = std::move(buffer_);
  buffer_.clear();
  close_parent_fds();
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = -1;
    result.term_signal = WTERMSIG(status);
  }
  result_ = result;
  return result;
}

Subprocess::Result Subprocess::stop(int grace_ms) {
  if (waited_) return *result_;  // already reaped: nothing left to stop
  ::killpg(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms < 0 ? 0 : grace_ms);
  for (;;) {
    (void)drain_available();
    (void)drain_stdout_available();
    // Peek without reaping: until the leader is reaped its pid pins the
    // group id, so the KILL below can never reach a recycled group.
    siginfo_t info{};
    const int r = ::waitid(P_PID, static_cast<id_t>(pid_), &info,
                           WEXITED | WNOHANG | WNOWAIT);
    if ((r == 0 && info.si_pid == pid_) ||
        (r < 0 && errno != EINTR) ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The leader exited, or the grace window expired because it ignored (or
  // blocked) SIGTERM. Either way KILL the whole group: descendants that
  // ignored the TERM or outlived the leader go with it.
  ::killpg(pid_, SIGKILL);
  (void)drain_available();
  (void)drain_stdout_available();
  return reap();
}

std::vector<int> Subprocess::poll_fds() const {
  std::vector<int> fds;
  if (!stderr_eof_ && stderr_fd_ >= 0) fds.push_back(stderr_fd_);
  if (!stdout_eof_ && stdout_fd_ >= 0) fds.push_back(stdout_fd_);
  return fds;
}

bool Subprocess::wait_any_readable(const std::vector<int>& fds,
                                   int timeout_ms) {
  if (timeout_ms < 0) timeout_ms = 0;
  if (fds.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    return false;
  }
  std::vector<struct pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
  }
  for (;;) {
    const int r =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    return r > 0;
  }
}

Subprocess::Result Subprocess::run(std::vector<std::string> argv) {
  Subprocess child(std::move(argv));
  return child.wait();
}

std::string self_executable_path(const char* argv0) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec && !exe.empty()) return exe.string();
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace lcda::util
