// Binary run-permission gate for the engine's direct handoff.
//
// Semantically a one-shot semaphore: a borrowing engine's scheduler opens
// it, the worker's own thread waits and re-closes it. std::condition_variable
// (the original implementation) costs a mutex acquire/release on both
// sides plus glibc's internal cv state machine per handoff;
// std::atomic::wait costs libstdc++'s shared waiter-pool bookkeeping and a
// spin-then-yield loop that degrades badly on a single-core host, where
// yielding hands the whole timeslice back and forth before sleeping. On
// Linux we therefore go straight to the futex: one FUTEX_WAKE on open(),
// one FUTEX_WAIT on a closed wait(), nothing shared between gates.
//
// Memory ordering: open() stores with release, wait() loads with acquire,
// so everything the scheduler wrote before opening the gate is visible to
// the woken actor without touching the engine mutex.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mad::sim {

class FutexGate {
 public:
  /// Blocks until open, then atomically re-closes. Called only by the
  /// thread of the worker the gate belongs to.
  void wait() {
    std::uint32_t v = val_.load(std::memory_order_acquire);
    while (v == 0) {
#if defined(__linux__)
      // Spurious returns (EINTR, EAGAIN on a raced open) re-check the value.
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&val_),
              FUTEX_WAIT_PRIVATE, 0, nullptr, nullptr, 0);
#else
      val_.wait(0, std::memory_order_relaxed);
#endif
      v = val_.load(std::memory_order_acquire);
    }
    val_.store(0, std::memory_order_relaxed);
  }

  /// Opens the gate; wakes the worker's thread if it is (or goes) waiting.
  void open() {
    val_.store(1, std::memory_order_release);
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&val_),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#else
    val_.notify_one();
#endif
  }

 private:
  std::atomic<std::uint32_t> val_{0};
  static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
                "futex word must be 4 bytes");
};

}  // namespace mad::sim
