// Stackful cooperative fibers for the simulation engine.
//
// Each simulated rank runs ordinary blocking C++ code; the engine used to
// give every rank an OS thread and hand control around with a mutex +
// condition variables (two futex round-trips per handoff).  A fiber switch
// is a userspace register swap — two orders of magnitude cheaper — and the
// engine switches millions of times per run, so this is the core of the
// sequential-mode speedup.
//
// Backend: on x86-64 a hand-written context switch (fiber_x86_64.S) saving
// only the SysV callee-saved registers + FP control words; elsewhere (or
// with -DOVPROF_FIBER_UCONTEXT) the portable ucontext API.  glibc's
// swapcontext performs a sigprocmask syscall per switch, which is why the
// assembly path exists.
//
// Stacks are mmap'd with MAP_NORESERVE and a PROT_NONE guard page at the
// low end, so 10,000+ fibers cost virtual address space, not RSS, and an
// overflow faults instead of corrupting a neighbour.  AddressSanitizer and
// ThreadSanitizer are informed of every switch via their fiber APIs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ovp::sim {

/// One execution context: either a fiber's suspended state or the saved
/// state of the host thread while a fiber runs.  POD bookkeeping only; the
/// switching logic lives in fiber.cpp.
struct FiberContext {
  void* impl = nullptr;           // backend state (saved sp / ucontext_t*)
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
};

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Creates a suspended fiber that will run entry(arg) on its first
  /// switch-in.  `entry` must never return: it must finish by calling
  /// switchTo(..., /*from_dying=*/true) away from this fiber.
  Fiber(std::size_t stack_bytes, Entry entry, void* arg);
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  [[nodiscard]] FiberContext& context() { return ctx_; }

  /// Suspends the calling context into `from` and runs this fiber (first
  /// entry or resumption).  Returns when the fiber switches back to `from`.
  void resume(FiberContext& from);

  /// Default usable stack size (env OVPROF_STACK_KB, a whole number of
  /// KiB in [64, 1048576], overrides; any other value is ignored).
  /// Generous under sanitizers, whose redzones inflate frames.
  static std::size_t defaultStackBytes();

  /// Saves the current context into `from` and resumes `to` (a suspended
  /// fiber context or a saved thread context).  `from_dying` means the
  /// current fiber will never be resumed (lets sanitizers retire its
  /// bookkeeping).  Returns when something switches back to `from`.
  static void switchTo(FiberContext& from, FiberContext& to, bool from_dying);

  /// Prepares `ctx` to represent the calling thread's own stack so fibers
  /// can switch back to it.  Must be called on that thread before any
  /// switchTo involving `ctx`.
  static void initThreadContext(FiberContext& ctx);
  static void releaseThreadContext(FiberContext& ctx);

 private:
  friend void fiberTrampolineImpl();
  FiberContext ctx_;
  unsigned char* map_base_ = nullptr;
  std::size_t map_len_ = 0;
  Entry entry_;
  void* arg_;
  bool started_ = false;
};

}  // namespace ovp::sim
