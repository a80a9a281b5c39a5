// cpu_sampler — a per-thread CPU-time sampling profiler, loaded with
// LD_PRELOAD. Every thread of the process (the main thread at load, every
// later one through an interposed pthread_create) arms its own
// timer_create(CLOCK_THREAD_CPUTIME_ID) timer, which sends that thread a
// SIGPROF each time it has used one more period of CPU time, user or
// kernel. The handler records the thread id and a backtrace of up to 64
// frames into a preallocated buffer; at exit the samples, the executable's
// path and the process's executable mappings are written out as text for
// tools/cpu_profile.py to symbolize and report. A blocked thread uses no
// CPU time and draws no samples, so shares are shares of CPU time.
//
//   export AMS_SAMPLER_OUT=prof.txt
//   LD_PRELOAD=build/tools/libams_cpu_sampler.so build/tools/ams_serve
//   python3 tools/cpu_profile.py prof.txt
//
// AMS_SAMPLER_OUT names the output file; without it the library does
// nothing. The period is 1 ms of each thread's CPU time. Samples past the
// buffer's 64 MB are counted as dropped. Do not combine with a sanitizer
// runtime, which interposes pthread_create itself.

#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace {

constexpr int kMaxFrames = 64;
/// The handler's own frame and the signal trampoline above it.
constexpr int kSkippedFrames = 2;
/// Sample buffer: 8M words of address space, resident only as it fills.
constexpr size_t kBufferWords = size_t{1} << 23;
/// One sample per millisecond of a thread's CPU time.
constexpr long kPeriodNs = 1000000;

/// Each sample is a header word (frame count << 32 | tid), then the
/// frames, innermost first. The header is stored last, with release, so
/// the dump stops at a sample still being written.
std::atomic<uint64_t>* g_buffer = nullptr;
std::atomic<size_t> g_used{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<bool> g_stopped{false};
char g_out_path[4096];

using PthreadCreate = int (*)(pthread_t*, const pthread_attr_t*,
                              void* (*)(void*), void*);
PthreadCreate g_real_pthread_create = nullptr;

void OnProfile(int, siginfo_t*, void*) {
  if (g_buffer == nullptr || g_stopped.load(std::memory_order_relaxed)) {
    return;
  }
  const int saved_errno = errno;
  void* frames[kMaxFrames + kSkippedFrames];
  const int depth = backtrace(frames, kMaxFrames + kSkippedFrames);
  const int kept = depth > kSkippedFrames ? depth - kSkippedFrames : 0;
  const size_t words = 1 + static_cast<size_t>(kept);
  const size_t at = g_used.fetch_add(words, std::memory_order_relaxed);
  if (at + words > kBufferWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (int i = 0; i < kept; ++i) {
      g_buffer[at + 1 + static_cast<size_t>(i)].store(
          reinterpret_cast<uintptr_t>(frames[kSkippedFrames + i]),
          std::memory_order_relaxed);
    }
    const uint64_t tid = static_cast<uint64_t>(syscall(SYS_gettid));
    g_buffer[at].store((static_cast<uint64_t>(kept) << 32) | tid,
                       std::memory_order_release);
  }
  errno = saved_errno;
}

/// Deletes the calling thread's timer when the thread exits.
struct ThreadTimer {
  timer_t id{};
  bool armed = false;
  ~ThreadTimer() {
    if (armed) timer_delete(id);
  }
};

void ArmThisThread() {
  thread_local ThreadTimer timer;
  if (g_buffer == nullptr || timer.armed) return;
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &event, &timer.id) != 0) return;
  timer.armed = true;
  itimerspec spec{};
  spec.it_interval.tv_nsec = kPeriodNs;
  spec.it_value = spec.it_interval;
  timer_settime(timer.id, 0, &spec, nullptr);
}

struct StartArgs {
  void* (*start)(void*);
  void* arg;
};

void* StartSampled(void* raw) {
  StartArgs args = *static_cast<StartArgs*>(raw);
  delete static_cast<StartArgs*>(raw);
  ArmThisThread();
  return args.start(args.arg);
}

void WriteProfile() {
  FILE* out = std::fopen(g_out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cpu_sampler: cannot write %s\n", g_out_path);
    return;
  }
  const size_t used = g_used.load(std::memory_order_relaxed);
  std::fprintf(out, "# cpu_sampler period_ns=%ld dropped=%llu\n",
               kPeriodNs,
               static_cast<unsigned long long>(
                   g_dropped.load(std::memory_order_relaxed)));
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len > 0) {
    exe[exe_len] = '\0';
    std::fprintf(out, "E %s\n", exe);
  }
  // Executable mappings (files, and the kernel's [vdso]), for turning
  // sampled addresses into module offsets.
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4608];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      unsigned long long start = 0, end = 0, offset = 0;
      char perms[8] = {};
      int path_at = 0;
      if (std::sscanf(line, "%llx-%llx %7s %llx %*s %*s %n", &start, &end,
                      perms, &offset, &path_at) < 4 ||
          perms[2] != 'x' || path_at <= 0 ||
          (line[path_at] != '/' && line[path_at] != '[')) {
        continue;
      }
      line[std::strcspn(line, "\n")] = '\0';
      std::fprintf(out, "M %llx %llx %llx %s\n", start, end, offset,
                   line + path_at);
    }
    std::fclose(maps);
  }
  size_t at = 0;
  while (at < used && at < kBufferWords) {
    const uint64_t header = g_buffer[at].load(std::memory_order_acquire);
    if (header == 0) break;  // a sample still being written at exit
    const size_t frames = static_cast<size_t>(header >> 32);
    if (at + 1 + frames > kBufferWords) break;
    std::fprintf(out, "S %llu",
                 static_cast<unsigned long long>(header & 0xffffffffu));
    for (size_t i = 0; i < frames; ++i) {
      std::fprintf(out, " %llx",
                   static_cast<unsigned long long>(
                       g_buffer[at + 1 + i].load(std::memory_order_relaxed)));
    }
    std::fputc('\n', out);
    at += 1 + frames;
  }
  std::fclose(out);
}

__attribute__((constructor, used)) void StartSampler() {
  g_real_pthread_create =
      reinterpret_cast<PthreadCreate>(dlsym(RTLD_NEXT, "pthread_create"));
  const char* path = std::getenv("AMS_SAMPLER_OUT");
  if (path == nullptr || *path == '\0' ||
      std::strlen(path) >= sizeof(g_out_path)) {
    return;
  }
  std::strcpy(g_out_path, path);
  void* buffer = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) return;
  // backtrace() loads the unwinder on its first call; make that call here,
  // not inside the first signal handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action {};
  action.sa_sigaction = OnProfile;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  g_buffer = static_cast<std::atomic<uint64_t>*>(buffer);
  ArmThisThread();
}

__attribute__((destructor, used)) void StopSampler() {
  if (g_buffer == nullptr) return;
  g_stopped.store(true, std::memory_order_relaxed);
  WriteProfile();
}

}  // namespace

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) {
  if (g_real_pthread_create == nullptr) {
    g_real_pthread_create =
        reinterpret_cast<PthreadCreate>(dlsym(RTLD_NEXT, "pthread_create"));
    if (g_real_pthread_create == nullptr) return EAGAIN;
  }
  if (g_buffer == nullptr) {
    return g_real_pthread_create(thread, attr, start, arg);
  }
  StartArgs* args = new StartArgs{start, arg};
  const int rc = g_real_pthread_create(thread, attr, StartSampled, args);
  if (rc != 0) delete args;
  return rc;
}
