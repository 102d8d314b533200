/* PC sampler for hosts without perf: an LD_PRELOAD library that samples the
 * program counter on a process-wide ITIMER_PROF (one sample per 1 ms of CPU
 * time, summed over all threads) and, at exit, writes /proc/self/maps and
 * the sampled PCs to pcsample.<pid>.txt in the working directory.
 *
 *   cc -O2 -shared -fPIC -o pcsample.so scripts/pcsample.c
 *   LD_PRELOAD=$PWD/pcsample.so <program> <args>
 *   python3 scripts/pcsample_report.py <program> pcsample.<pid>.txt
 *
 * x86-64 and arm64 Linux. See docs/PERF.md ("Profiling workflow"). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)

static unsigned long samples[MAX_SAMPLES];
static volatile int count;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const unsigned long pc = (unsigned long)uc->uc_mcontext.pc;
#else
#error "pcsample: unsupported architecture"
#endif
  const int slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (slot < MAX_SAMPLES) samples[slot] = pc;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "pcsample.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
  fclose(maps);
  const int n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
  for (int i = 0; i < n; ++i) fprintf(out, "pc %lx\n", samples[i]);
  fclose(out);
}
