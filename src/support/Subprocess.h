//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal fork/exec + pipe plumbing for the sharded certification
/// driver: spawn a worker process with its stdin/stdout replaced by
/// pipes, write/read exact byte counts over those pipes, and reap the
/// child. POSIX-only, like the store's flock discipline; nothing here
/// knows about the framing protocol (src/shard/Protocol.h layers that
/// on top).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_SUBPROCESS_H
#define CANVAS_SUPPORT_SUBPROCESS_H

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace canvas {
namespace support {

/// A spawned child with pipe ends owned by the caller. InFd writes to
/// the child's stdin; OutFd reads from its stdout. stderr is inherited,
/// so worker diagnostics surface on the driver's stderr unmangled.
struct ChildProcess {
  pid_t Pid = -1;
  int InFd = -1;
  int OutFd = -1;

  bool valid() const { return Pid > 0; }
};

/// Forks and execs \p Argv (Argv[0] is the executable path; PATH is not
/// searched). \p ExtraEnv entries ("KEY=VALUE") are applied on top of
/// the inherited environment. Returns false with \p Error set on
/// failure; on success the caller owns Out's fds, which are
/// close-on-exec so later children do not inherit them, and must reap
/// the pid with waitProcess().
bool spawnProcess(const std::vector<std::string> &Argv,
                  const std::vector<std::string> &ExtraEnv, ChildProcess &Out,
                  std::string &Error);

/// Waits for \p Pid to exit. Returns the exit status (>= 0) or, for a
/// signal death, -signo. Returns -1000 on wait failure.
int waitProcess(pid_t Pid);

/// Writes exactly \p Size bytes, retrying on EINTR / partial writes.
/// False on any hard error (EPIPE when the child died, etc.).
bool writeAll(int Fd, const uint8_t *Data, size_t Size);

/// Reads exactly \p Size bytes. False on EOF or a hard error.
bool readAll(int Fd, uint8_t *Data, size_t Size);

/// This executable's path (/proc/self/exe), for self-re-exec worker
/// spawning; empty on failure.
std::string selfExecutablePath();

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_SUBPROCESS_H
