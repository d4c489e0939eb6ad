#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "util/strings.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

// Backend selection: hand-written assembly on x86-64 ELF (fiber_x86_64.S),
// ucontext everywhere else or when forced with -DOVPROF_FIBER_UCONTEXT.
#if defined(__x86_64__) && defined(__ELF__) && !defined(OVPROF_FIBER_UCONTEXT)
#define OVP_FIBER_ASM 1
#else
#define OVP_FIBER_ASM 0
#include <ucontext.h>
#endif

#if OVP_FIBER_ASM
extern "C" void ovp_fiber_switch(void** save_sp, void* restore_sp);
extern "C" void ovp_fiber_trampoline();
#endif

namespace ovp::sim {

namespace {

/// The fiber about to receive its very first switch-in; set immediately
/// before the switch and consumed by the trampoline (nothing runs between).
thread_local Fiber* t_starting = nullptr;

void sanitizerStartSwitch(FiberContext& from, const FiberContext& to,
                          bool from_dying) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.asan_fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from;
  (void)to;
  (void)from_dying;
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
}

void sanitizerFinishSwitch(FiberContext& self) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, nullptr, nullptr);
#else
  (void)self;
#endif
}

void rawSwitch(FiberContext& from, FiberContext& to) {
#if OVP_FIBER_ASM
  ovp_fiber_switch(&from.impl, to.impl);
#else
  swapcontext(static_cast<ucontext_t*>(from.impl),
              static_cast<ucontext_t*>(to.impl));
#endif
}

}  // namespace

/// First-entry landing point for a fresh fiber (the asm backend `ret`s here;
/// the ucontext backend reaches it via makecontext).  Never returns: the
/// entry function must switch away with from_dying once it is finished.
void fiberTrampolineImpl() {
  Fiber* self = t_starting;
  t_starting = nullptr;
  sanitizerFinishSwitch(self->ctx_);
  self->entry_(self->arg_);
  std::abort();  // entry returned instead of switching away
}

#if OVP_FIBER_ASM
extern "C" void ovp_fiber_trampoline() { fiberTrampolineImpl(); }
#endif

std::size_t Fiber::defaultStackBytes() {
#if defined(__SANITIZE_ADDRESS__)
  std::int64_t kb = 1024;  // ASan redzones inflate every frame
#else
  std::int64_t kb = 256;
#endif
  // Only a whole number of KiB in [64 KiB, 1 GiB] overrides it, so the byte
  // count cannot wrap to a stack too small to run on.
  std::int64_t v = 0;
  if (const char* env = std::getenv("OVPROF_STACK_KB");
      env != nullptr && util::parseInt(env, v) && v >= 64 && v <= 1048576) {
    kb = v;
  }
  return static_cast<std::size_t>(kb) * 1024;
}

Fiber::Fiber(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes = (stack_bytes + page - 1) & ~(page - 1);
  map_len_ = stack_bytes + page;  // + one guard page at the low end
  void* mem = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  map_base_ = static_cast<unsigned char*>(mem);
  if (mprotect(map_base_, page, PROT_NONE) != 0) {
    munmap(map_base_, map_len_);
    throw std::runtime_error("fiber: mprotect(guard) failed");
  }
  ctx_.stack_bottom = map_base_ + page;
  ctx_.stack_size = stack_bytes;

#if OVP_FIBER_ASM
  // Craft the stack exactly as ovp_fiber_switch leaves a suspended context:
  // [FP control][r15 r14 r13 r12 rbx rbp][return address][filler], with the
  // return address pointing at the trampoline.  After the restore sequence
  // the trampoline starts with rsp ≡ 8 (mod 16), as if it had been call'd.
  auto* sp = reinterpret_cast<std::uint64_t*>(map_base_ + map_len_);
  *--sp = 0;  // filler; also the trampoline's (never used) return address
  *--sp = reinterpret_cast<std::uint64_t>(&ovp_fiber_trampoline);
  for (int i = 0; i < 6; ++i) *--sp = 0;  // rbp, rbx, r12..r15
  --sp;                                   // mxcsr + x87 control word
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(reinterpret_cast<char*>(sp), &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<char*>(sp) + 4, &fcw, sizeof(fcw));
  ctx_.impl = sp;
#else
  auto* uc = new ucontext_t();
  if (getcontext(uc) != 0) {
    delete uc;
    munmap(map_base_, map_len_);
    throw std::runtime_error("fiber: getcontext failed");
  }
  uc->uc_stack.ss_sp = const_cast<void*>(ctx_.stack_bottom);
  uc->uc_stack.ss_size = ctx_.stack_size;
  uc->uc_link = nullptr;
  makecontext(uc, reinterpret_cast<void (*)()>(&fiberTrampolineImpl), 0);
  ctx_.impl = uc;
#endif

#if defined(__SANITIZE_THREAD__)
  ctx_.tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(__SANITIZE_THREAD__)
  if (ctx_.tsan_fiber != nullptr) __tsan_destroy_fiber(ctx_.tsan_fiber);
#endif
#if !OVP_FIBER_ASM
  delete static_cast<ucontext_t*>(ctx_.impl);
#endif
  if (map_base_ == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  // ASan keeps shadow across munmap: the redzones of the frames this fiber
  // ended in would stay poisoned under whatever is mapped here next, and a
  // later fiber's valid stack stores there would be reported as errors.
  ASAN_UNPOISON_MEMORY_REGION(map_base_, map_len_);
#endif
  munmap(map_base_, map_len_);
}

void Fiber::resume(FiberContext& from) {
  if (!started_) {
    started_ = true;
    t_starting = this;
  }
  switchTo(from, ctx_, /*from_dying=*/false);
}

void Fiber::switchTo(FiberContext& from, FiberContext& to, bool from_dying) {
  sanitizerStartSwitch(from, to, from_dying);
  rawSwitch(from, to);
  sanitizerFinishSwitch(from);
}

void Fiber::initThreadContext(FiberContext& ctx) {
#if !OVP_FIBER_ASM
  if (ctx.impl == nullptr) ctx.impl = new ucontext_t();
#endif
#if defined(__SANITIZE_ADDRESS__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      ctx.stack_bottom = addr;
      ctx.stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if defined(__SANITIZE_THREAD__)
  ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  (void)ctx;
}

void Fiber::releaseThreadContext(FiberContext& ctx) {
#if !OVP_FIBER_ASM
  delete static_cast<ucontext_t*>(ctx.impl);
  ctx.impl = nullptr;
#endif
  (void)ctx;
}

}  // namespace ovp::sim
