#include "support/Subprocess.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace canvas;
using namespace canvas::support;

bool support::spawnProcess(const std::vector<std::string> &Argv,
                           const std::vector<std::string> &ExtraEnv,
                           ChildProcess &Out, std::string &Error) {
  if (Argv.empty()) {
    Error = "empty argv";
    return false;
  }
  // Close-on-exec, so no later child inherits this child's pipe ends
  // (a worker would otherwise see stdin EOF only once every sibling
  // spawned after it has exited). The dup2 onto the child's stdin and
  // stdout clears the flag on the two ends it keeps.
  int ToChild[2] = {-1, -1};  // driver writes [1] -> child stdin [0]
  int FromChild[2] = {-1, -1}; // child stdout [1] -> driver reads [0]
  if (::pipe2(ToChild, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + strerror(errno);
    return false;
  }
  if (::pipe2(FromChild, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + strerror(errno);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return false;
  }

  const pid_t Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + strerror(errno);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    return false;
  }

  if (Pid == 0) {
    // Child: wire the pipes onto stdin/stdout, drop the driver ends,
    // apply env overrides, exec. Only async-signal-safe calls plus
    // setenv (single-threaded here: fork happens before the driver
    // spawns any threads).
    ::dup2(ToChild[0], STDIN_FILENO);
    ::dup2(FromChild[1], STDOUT_FILENO);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    for (const std::string &KV : ExtraEnv) {
      const size_t Eq = KV.find('=');
      if (Eq != std::string::npos)
        ::setenv(KV.substr(0, Eq).c_str(), KV.substr(Eq + 1).c_str(), 1);
    }
    std::vector<char *> Args;
    Args.reserve(Argv.size() + 1);
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    ::execv(Args[0], Args.data());
    // exec failed: exit without running atexit handlers of the forked
    // image. 127 mirrors the shell's "command not found".
    ::_exit(127);
  }

  ::close(ToChild[0]);
  ::close(FromChild[1]);
  Out.Pid = Pid;
  Out.InFd = ToChild[1];
  Out.OutFd = FromChild[0];
  return true;
}

int support::waitProcess(pid_t Pid) {
  int Status = 0;
  for (;;) {
    const pid_t R = ::waitpid(Pid, &Status, 0);
    if (R == Pid)
      break;
    if (R < 0 && errno == EINTR)
      continue;
    return -1000;
  }
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return -WTERMSIG(Status);
  return -1000;
}

bool support::writeAll(int Fd, const uint8_t *Data, size_t Size) {
  size_t Done = 0;
  while (Done != Size) {
    const ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

bool support::readAll(int Fd, uint8_t *Data, size_t Size) {
  size_t Done = 0;
  while (Done != Size) {
    const ssize_t N = ::read(Fd, Data + Done, Size - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF mid-read: the peer died or closed early.
    Done += static_cast<size_t>(N);
  }
  return true;
}

std::string support::selfExecutablePath() {
  char Buf[4096];
  const ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  return Buf;
}
