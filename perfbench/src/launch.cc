// perfbench_launch: runs a command as its child and reports the child's
// resource usage.
//
//   perfbench_launch <program> [args...]
//
// The child inherits stdin/stdout/stderr. When it exits, one line
//   perfbench-launch: status=<s> utime_us=<u> stime_us=<s> maxrss_kb=<k>
// goes to stdout and the launcher exits with the child's status.
//
// Why a separate process: Linux carries a process's peak-RSS record across
// exec, so a program started straight from the harness would report the
// harness's own peak as its ru_maxrss. Forked from this small launcher, the
// program's ru_maxrss is its own.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <program> [args...]\n", argv[0]);
    return 2;
  }
  // Dies with the harness that started it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const pid_t child = fork();
  if (child < 0) return 127;
  if (child == 0) {
    // Dies with the launcher, so a killed run leaves no server behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv(argv[1], argv + 1);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(child, &status, 0, &ru) < 0) {
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::fflush(stdout);
  std::printf("perfbench-launch: status=%d utime_us=%lld stime_us=%lld maxrss_kb=%ld\n",
              code,
              static_cast<long long>(ru.ru_utime.tv_sec) * 1'000'000 + ru.ru_utime.tv_usec,
              static_cast<long long>(ru.ru_stime.tv_sec) * 1'000'000 + ru.ru_stime.tv_usec,
              ru.ru_maxrss);
  return code;
}
