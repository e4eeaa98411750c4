/* SIGPROF sampling profiler, loaded with LD_PRELOAD (recipe: EXPERIMENTS.md,
 * "Sampling profile").
 *
 * SAMPLER_HZ times per second of process CPU time (default 997),
 * ITIMER_PROF raises SIGPROF; the handler records the interrupted PC and the
 * return addresses found by walking the frame-pointer chain, bounded to the
 * main thread's stack. At exit the samples ("pc ra ra ...", hex, one per
 * line) and then /proc/self/maps go to SAMPLER_OUT (default sampler.out),
 * for resolve.py. Frames are complete only in code built with
 * -fno-omit-frame-pointer. Single-threaded programs only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kMaxDepth = 48, kMaxSamples = 1 << 16 };

static uintptr_t frames[kMaxSamples][kMaxDepth];
static unsigned char depth[kMaxSamples];
static volatile size_t nsamples;
static uintptr_t stack_lo, stack_hi;

static void onProf(int sig, siginfo_t* si, void* ctx) {
  (void)sig, (void)si;
  const mcontext_t* mc = &((ucontext_t*)ctx)->uc_mcontext;
  if (nsamples >= kMaxSamples) return;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)mc->gregs[REG_RIP], fp = (uintptr_t)mc->gregs[REG_RBP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)mc->pc, fp = (uintptr_t)mc->regs[29];
#endif
  uintptr_t* f = frames[nsamples];
  int n = 0;
  f[n++] = pc;
  /* A frame is {saved fp, return address}; each caller's frame sits higher. */
  while (n < kMaxDepth && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    if (frame[1] == 0) break;
    f[n++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  depth[nsamples] = (unsigned char)n;
  nsamples = nsamples + 1;
}

__attribute__((constructor)) static void samplerStart(void) {
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[512];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    if (strstr(line, "[stack]") != NULL) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
  }
  if (maps != NULL) fclose(maps);
  /* The mapping grows down as the program runs: bound by the stack limit. */
  struct rlimit lim;
  const uintptr_t span = getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY
                             ? (uintptr_t)lim.rlim_cur
                             : (uintptr_t)64 << 20;
  if (stack_hi > span) stack_lo = stack_hi - span;
  const char* hz_env = getenv("SAMPLER_HZ");
  const long hz = hz_env != NULL && atol(hz_env) > 0 ? atol(hz_env) : 997;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void samplerStop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("SAMPLER_OUT");
  FILE* out = fopen(path != NULL ? path : "sampler.out", "w");
  if (out == NULL) return;
  for (size_t s = 0; s < nsamples; ++s) {
    for (int i = 0; i < depth[s]; ++i) fprintf(out, i == 0 ? "%lx" : " %lx", frames[s][i]);
    fputc('\n', out);
  }
  fputs("--- maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  int c;
  while (maps != NULL && (c = fgetc(maps)) != EOF) fputc(c, out);
  if (maps != NULL) fclose(maps);
  fclose(out);
}
