//===----------------------------------------------------------------------===//
// support::spawnProcess hands the caller pipe ends that no later child
// inherits: they are close-on-exec, so a worker whose driver closes its
// stdin sees EOF at once, not only after every sibling spawned after it
// has exited. Workers are this test binary re-executed with --worker
// (see ShardTestMain.cpp).
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::support;

namespace {

ChildProcess spawnWorker() {
  ChildProcess P;
  std::string Error;
  EXPECT_TRUE(spawnProcess({selfExecutablePath(), "--worker"}, {}, P, Error))
      << Error;
  return P;
}

/// Closes the child's stdin (an orderly drain for a worker), then its
/// stdout, and reaps it.
void finish(ChildProcess &P) {
  ::close(P.InFd);
  ::close(P.OutFd);
  waitProcess(P.Pid);
}

TEST(SubprocessTest, DriverPipeEndsAreCloseOnExec) {
  ChildProcess P = spawnWorker();
  ASSERT_TRUE(P.valid());
  EXPECT_TRUE(::fcntl(P.InFd, F_GETFD) & FD_CLOEXEC);
  EXPECT_TRUE(::fcntl(P.OutFd, F_GETFD) & FD_CLOEXEC);
  finish(P);
}

TEST(SubprocessTest, ClosingStdinEndsAWorkerWhileALaterSiblingRuns) {
  ChildProcess First = spawnWorker();
  ChildProcess Second = spawnWorker();
  ASSERT_TRUE(First.valid() && Second.valid());
  // The first worker exits on stdin EOF, which closes its stdout. Had
  // the second worker inherited the write end of the first one's stdin,
  // that EOF would wait for the second worker to exit.
  ::close(First.InFd);
  pollfd Fd = {First.OutFd, POLLIN, 0};
  const int Ready = ::poll(&Fd, 1, 10000);
  finish(Second);
  EXPECT_EQ(Ready, 1) << "the first worker outlived its stdin";
  ::close(First.OutFd);
  EXPECT_EQ(waitProcess(First.Pid), 0);
}

} // namespace
