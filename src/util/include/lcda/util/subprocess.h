#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace lcda::util {

/// Fork/exec helper for spawning worker processes: runs an argv vector,
/// captures the child's stderr through a pipe, and reports how it ended
/// (exit status or terminating signal). By default stdout is inherited,
/// so a child that legitimately talks to the terminal still can; a parent
/// that speaks a pipe protocol with the child opts into `Options` pipes
/// for stdin/stdout instead.
///
/// The distributed study runner (lcda::dist) is the primary user: the
/// coordinator keeps one resident `lcda_run --worker-loop` per slot,
/// streams commands down its stdin with write_stdin(), reads line replies
/// with read_stdout(), polls exits with try_wait() so finished workers are
/// reaped in completion order, and stops superseded or wedged workers with
/// stop() — SIGTERM first, so a worker can die mid-sleep cleanly,
/// escalating to SIGKILL after a grace window for one that ignores it.
///
/// Children never outlive their owner: each child leads a process group
/// of its own, and stop() and the destructor signal that whole group, so
/// grandchildren die with the child. (A child in its own group that reads
/// an inherited terminal stdin is stopped by SIGTTIN — pipe stdin for
/// such children.) Every pipe is close-on-exec, so no child inherits
/// another's pipe ends.
///
/// Deadlock-freedom contract: every parent-side descriptor is
/// non-blocking. write_stdin() buffers bytes the pipe will not take yet in
/// parent memory and retries on later calls, and read_stdout()/
/// take_stderr() only ever return what has already arrived — no call on
/// this class blocks on a full or empty pipe.
class Subprocess {
 public:
  /// Which standard streams the parent holds pipes to. stderr is always
  /// captured; stdin/stdout pipes are opt-in so plain spawn-and-wait users
  /// keep terminal inheritance.
  struct Options {
    bool pipe_stdin = false;   ///< parent writes child stdin (write_stdin)
    bool pipe_stdout = false;  ///< parent reads child stdout (read_stdout)
  };

  /// How a child ended. `exit_code` is the process exit status when it
  /// exited normally and -1 when a signal killed it (`term_signal` then
  /// holds the signal number). A child that could not exec its program
  /// exits with code 127, like a shell.
  struct Result {
    int exit_code = -1;
    int term_signal = 0;
    std::string stderr_output;

    [[nodiscard]] bool ok() const { return exit_code == 0; }

    /// "exit 3" / "signal 6" — for error messages.
    [[nodiscard]] std::string describe() const;
  };

  /// Spawns argv[0] with the given argument vector (argv[0] is both the
  /// program and its zeroth argument; PATH is searched). Throws
  /// std::runtime_error when the process cannot be created. `argv` must
  /// be non-empty.
  explicit Subprocess(std::vector<std::string> argv);
  Subprocess(std::vector<std::string> argv, const Options& options);

  /// Stops (stop() with kDestructGraceMs, so the whole process group) and
  /// reaps a child that was never waited on, so an exception unwinding past
  /// a live Subprocess cannot leak a zombie or an orphaned grandchild — and
  /// a child that handles SIGTERM gets a moment to die
  /// cleanly before the SIGKILL backstop.
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Drains the child's stderr (and piped stdout) to EOF, then reaps it.
  /// Call at most once (not after try_wait() returned a Result or stop()
  /// was called).
  [[nodiscard]] Result wait();

  /// Non-blocking poll: drains whatever stderr/stdout is currently
  /// available and reaps the child iff it already exited. Returns
  /// std::nullopt while the child is still running; once it has exited,
  /// this and every later call return the (cached) final Result —
  /// idempotent, so a poll loop can check a child it already saw finish.
  [[nodiscard]] std::optional<Result> try_wait();

  /// Graceful stop of the child's whole process group: SIGTERM, then up
  /// to `grace_ms` for the child to exit on its own, then SIGKILL (which
  /// also takes any descendant that ignored the TERM or outlived the
  /// child), then reap. Returns how the child actually ended (exit code if
  /// it honoured the TERM, signal otherwise).
  [[nodiscard]] Result stop(int grace_ms = kDefaultStopGraceMs);

  /// Queues `data` for the child's stdin and flushes as much as the pipe
  /// accepts right now; the rest is buffered in parent memory and flushed
  /// opportunistically by later write_stdin()/read_stdout()/try_wait()
  /// calls, so the caller can never deadlock against a full pipe. Returns
  /// false once the pipe is broken (child dead or closed its stdin) —
  /// SIGPIPE is ignored process-wide on first pipe use so a dead reader
  /// surfaces as this return value, not a signal. Requires
  /// Options::pipe_stdin.
  bool write_stdin(std::string_view data);

  /// Closes the child's stdin (after flushing what the pipe will take),
  /// delivering EOF — how a line-protocol child is told "no more
  /// commands". Unsent buffered bytes are dropped; callers that need a
  /// clean shutdown line should check write_stdin()'s return first.
  void close_stdin();

  /// Returns (and consumes) whatever child stdout has arrived since the
  /// last call. Empty string means "nothing yet", not EOF — pair with
  /// try_wait() to detect a dead child. Requires Options::pipe_stdout.
  [[nodiscard]] std::string read_stdout();

  /// Returns (and consumes) whatever child stderr has arrived since the
  /// last call, so a long-lived worker's stderr can be attributed to the
  /// command that produced it instead of accumulating until reap time.
  [[nodiscard]] std::string take_stderr();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool waited() const { return waited_; }

  /// Parent-side read descriptors still open (the stderr capture plus the
  /// piped stdout when enabled, excluding any already at EOF) — what an
  /// event loop should watch before sleeping. Empty once nothing further
  /// can arrive (both pipes at EOF, or the child already reaped).
  [[nodiscard]] std::vector<int> poll_fds() const;

  /// Blocks until any of `fds` is readable (data arrived, or EOF/hangup —
  /// how a child's exit surfaces on its pipes) or `timeout_ms` elapses.
  /// Returns true when a descriptor woke it, false on timeout. An empty
  /// `fds` degrades to a plain sleep, so a caller's backoff still paces
  /// its time-based scans.
  [[nodiscard]] static bool wait_any_readable(const std::vector<int>& fds,
                                              int timeout_ms);

  /// Convenience: spawn + wait.
  [[nodiscard]] static Result run(std::vector<std::string> argv);

  static constexpr int kDefaultStopGraceMs = 1000;
  static constexpr int kDestructGraceMs = 200;

 private:
  /// Reads available stderr into buffer_; returns false once EOF is seen.
  bool drain_available();
  /// Reads available piped stdout into stdout_buffer_; false once EOF.
  bool drain_stdout_available();
  /// Writes as much of stdin_pending_ as the pipe takes; false on EPIPE.
  bool flush_stdin();
  void close_parent_fds();
  Result reap();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int stdout_fd_ = -1;
  int stdin_fd_ = -1;
  bool waited_ = false;
  bool stderr_eof_ = false;
  bool stdout_eof_ = false;
  bool stdin_broken_ = false;
  std::string buffer_;
  std::string stdout_buffer_;
  std::string stdin_pending_;  ///< bytes the pipe has not accepted yet
  std::optional<Result> result_;  ///< cached once reaped (try_wait idempotence)
};

/// Absolute path of the running executable (/proc/self/exe), falling back
/// to `argv0` when the link cannot be read — how a CLI re-invokes itself
/// in worker mode.
[[nodiscard]] std::string self_executable_path(const char* argv0);

}  // namespace lcda::util
