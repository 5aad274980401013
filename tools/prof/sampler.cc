/**
 * @file
 * A sampling CPU profiler to preload into any dilu binary:
 *
 *   LD_PRELOAD=build/tools/libdilu_sampler.so ./build/tools/dilu_run x.exp
 *   python3 tools/prof/report.py dilu_sampler.<pid>.txt
 *
 * While loaded it arms setitimer(ITIMER_PROF) at 1 ms of process CPU
 * time; each SIGPROF records the interrupted PC and up to kFrames - 1
 * return addresses above it into a fixed buffer (no allocation in the
 * handler). At exit it writes `dilu_sampler.<pid>.txt` into the working
 * directory: the process's /proc/self/maps, then one line of hex PCs
 * per sample, innermost first. report.py turns the PCs into symbols.
 * It takes no configuration, so profiling adds no option, flag or
 * environment variable to the profiled program.
 */
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>

namespace {

constexpr int kFrames = 12;
constexpr int kMaxSamples = 1 << 17;
constexpr long kPeriodUs = 1000;

struct Sample {
  int depth;
  std::uintptr_t pc[kFrames];
};

Sample g_samples[kMaxSamples];
std::atomic<int> g_count{0};
std::atomic<long> g_dropped{0};

std::uintptr_t
InterruptedPc(void* context)
{
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void
OnProf(int /*sig*/, siginfo_t* /*info*/, void* context)
{
  const int saved_errno = errno;
  const int slot = g_count.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = g_samples[slot];
  const std::uintptr_t pc = InterruptedPc(context);
  void* stack[kFrames + 4];
  const int n = backtrace(stack, kFrames + 4);
  // The stack starts in this handler and the signal trampoline; the
  // interrupted frame follows. Keep what lies above the interrupted PC
  // (or, when the unwinder did not report it, above the trampoline).
  int first = 2;
  for (int i = 0; i < n; ++i) {
    if (reinterpret_cast<std::uintptr_t>(stack[i]) == pc) {
      first = i + 1;
      break;
    }
  }
  s.pc[0] = pc;
  int depth = 1;
  for (int i = first; i < n && depth < kFrames; ++i) {
    s.pc[depth++] = reinterpret_cast<std::uintptr_t>(stack[i]);
  }
  s.depth = depth;
  errno = saved_errno;
}

void
WriteAll(int fd, const char* data, std::size_t size)
{
  while (size > 0) {
    const ssize_t w = write(fd, data, size);
    if (w <= 0) return;
    data += w;
    size -= static_cast<std::size_t>(w);
  }
}

__attribute__((constructor)) void
Start()
{
  // The first backtrace loads the unwinder, which allocates: do it
  // here, not in the handler.
  void* warm[2];
  backtrace(warm, 2);
  struct sigaction sa = {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer = {};
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value.tv_usec = kPeriodUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void
Stop()
{
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  char path[64];
  std::snprintf(path, sizeof path, "dilu_sampler.%d.txt",
                static_cast<int>(getpid()));
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const int count = std::min(g_count.load(), kMaxSamples);
  char line[64 + kFrames * 20];
  int len = std::snprintf(line, sizeof line,
                          "# dilu sampler: %d samples, %ld dropped, "
                          "period %ld us\n# maps\n",
                          count, g_dropped.load(), kPeriodUs);
  WriteAll(fd, line, static_cast<std::size_t>(len));
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char buf[4096];
    for (ssize_t r; (r = read(maps, buf, sizeof buf)) > 0;) {
      WriteAll(fd, buf, static_cast<std::size_t>(r));
    }
    close(maps);
  }
  WriteAll(fd, "# samples\n", 10);
  for (int i = 0; i < count; ++i) {
    const Sample& s = g_samples[i];
    len = 0;
    for (int f = 0; f < s.depth; ++f) {
      const auto room = sizeof line - static_cast<std::size_t>(len);
      len += std::snprintf(line + len, room, f == 0 ? "%lx" : " %lx",
                           static_cast<unsigned long>(s.pc[f]));
    }
    line[len++] = '\n';
    WriteAll(fd, line, static_cast<std::size_t>(len));
  }
  close(fd);
}

}  // namespace
