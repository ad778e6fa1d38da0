// Run one measurement in a forked child process (Linux/POSIX).
//
// A child gets its own heap, its own lazily-started Executor workers and
// its own ru_maxrss high-water mark, so wall time and peak RSS are truly
// per measurement: nothing an earlier measurement allocated (or left in
// the allocator's free lists) leaks into a later one. The parent must not
// have started any threads of its own before forking — keep every Network
// and service inside the child.
//
// The child reports through a pipe: the body appends text to `out`, which
// the parent receives verbatim once the child exits.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <string>

namespace dgr::bench {

struct ChildResult {
  bool ok = false;          ///< exited 0 (the body returned true)
  std::string out;          ///< everything the body appended
  double peak_rss_mib = 0;  ///< the child's ru_maxrss
  std::string failure;      ///< how it failed, when !ok
};

/// Fork, run `body(out)` in the child, and collect its output, exit status
/// and peak RSS. `body` returns true when its outputs validated; a thrown
/// exception is reported as a failure with its message.
template <typename Body>
ChildResult run_in_child(Body&& body) {
  ChildResult r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.failure = "pipe() failed";
    return r;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    r.failure = "fork() failed";
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    int code = 3;
    try {
      code = body(out) ? 0 : 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dgr_bench child: %s\n", e.what());
      code = 4;
    }
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w = write(fds[1], out.data() + off, out.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    close(fds[1]);
    // _exit: no static destructors (the Executor's workers die with the
    // process) and no second flush of stdio buffers inherited from the
    // parent.
    _exit(code);
  }
  close(fds[1]);
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    r.out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      r.failure = "wait4() failed";
      return r;
    }
  }
  r.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    r.ok = true;
  } else if (WIFEXITED(status)) {
    r.failure = WEXITSTATUS(status) == 3
                    ? "output failed validation"
                    : "child exited with code " +
                          std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    r.failure = "child killed by signal " + std::to_string(WTERMSIG(status));
  }
  return r;
}

}  // namespace dgr::bench
