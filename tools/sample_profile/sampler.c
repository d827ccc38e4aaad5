/* A SIGPROF stack sampler loaded with LD_PRELOAD; needs neither perf nor
 * a -pg build.
 *
 * On load it arms ITIMER_PROF (one tick per millisecond of process CPU
 * time) and records a backtrace() of the interrupted thread on every
 * tick into a static buffer. At exit it writes the executable mappings
 * of /proc/self/maps and the stacks, leaf first, to
 * sample_profile.<pid>.txt in the working directory. report.py turns that
 * into inclusive, self and caller shares; with --run it builds this file,
 * runs a command under it and reports in one step:
 *
 *   python3 tools/sample_profile/report.py --run -- ./build/tools/acfc \
 *       place examples/programs/jacobi_misaligned.mp -o repaired.mp
 *
 * Build by hand: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum {
  kMaxDepth = 96,
  /* Frames of the handler itself and the kernel's signal trampoline. */
  kSkip = 2,
  /* Words of stack storage (32 MiB of address space; only the pages a
   * run fills become resident). */
  kCapacity = 4 << 20,
  kIntervalUs = 1000,
};

static uintptr_t buffer[kCapacity];
static atomic_size_t used;
static atomic_ulong dropped;

static void on_tick(int sig) {
  (void)sig;
  void* frames[kMaxDepth];
  const int depth = backtrace(frames, kMaxDepth);
  if (depth <= kSkip) return;
  const size_t words = (size_t)(depth - kSkip) + 1; /* length + frames */
  const size_t at = atomic_fetch_add(&used, words);
  if (at + words > kCapacity) {
    atomic_fetch_add(&dropped, 1);
    return;
  }
  buffer[at] = (uintptr_t)(depth - kSkip);
  for (int i = kSkip; i < depth; ++i)
    buffer[at + 1 + (size_t)(i - kSkip)] = (uintptr_t)frames[i];
}

static void set_timer(long us) {
  struct itimerval t;
  memset(&t, 0, sizeof t);
  t.it_interval.tv_usec = us;
  t.it_value.tv_usec = us;
  setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void sampler_start(void) {
  /* backtrace() loads the unwinder on first use; do that here, not in a
   * signal handler. */
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  set_timer(kIntervalUs);
}

__attribute__((destructor)) static void sampler_stop(void) {
  set_timer(0);
  char path[64];
  snprintf(path, sizeof path, "sample_profile.%ld.txt", (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "# sample_profile v1 interval_us %d dropped %lu\n",
          kIntervalUs, (unsigned long)atomic_load(&dropped));
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL)
      if (strstr(line, " r-xp ") != NULL) fprintf(out, "map %s", line);
    fclose(maps);
  }
  size_t end = atomic_load(&used);
  if (end > kCapacity) end = kCapacity;
  for (size_t at = 0; at < end;) {
    const size_t depth = buffer[at];
    if (depth == 0 || at + 1 + depth > end) break;
    fputs("stack", out);
    for (size_t i = 0; i < depth; ++i)
      fprintf(out, " %lx", (unsigned long)buffer[at + 1 + i]);
    fputc('\n', out);
    at += 1 + depth;
  }
  fclose(out);
}
