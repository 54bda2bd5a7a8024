#pragma once

/// \file barrier.h
/// Reusable generation-counted barrier for the in-process worker group.
/// (std::barrier is available in C++20 but its completion-function typing
/// makes composition awkward; this is the classic MPI-style phase barrier.)
///
/// Waiting is spin-then-park.  A waiter first polls the generation for up
/// to kSpinBudget, then sleeps on the condition variable.  Parking at once
/// lets the scheduler co-locate the rank threads: a wakeup places the
/// woken rank on or next to the CPU of the rank that woke it, and once
/// both ranks share one CPU they run one after the other, wakeup after
/// wakeup (ssd-link benchmark: ~200 instead of ~245 iterations/s on about
/// half of the runs).  A spinning waiter is never woken, and a spinner that
/// does share its CPU stays runnable, so the load balancer moves it away.
///
/// Spinning only helps when each party can have a CPU of its own.  When
/// the calling thread may run on no more CPUs than there are parties (a
/// 1-core host, `taskset -c 0`), the spin would only take the CPU from the
/// rank it waits for, so the waiter parks at once.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.h"

namespace lowdiff {

class Barrier {
 public:
  /// Longest a waiter polls before it parks on the condition variable.
  static constexpr std::chrono::microseconds kSpinBudget{3000};

  explicit Barrier(std::size_t parties) : parties_(parties) {
    LOWDIFF_ENSURE(parties > 0, "barrier needs at least one party");
  }

  /// Blocks until all parties have arrived; automatically resets.
  void arrive_and_wait() {
    std::unique_lock lock(mutex_);
    const std::size_t my_generation = generation_.load(std::memory_order_relaxed);
    if (++arrived_ == parties_) {
      arrived_ = 0;
      generation_.store(my_generation + 1, std::memory_order_release);
      lock.unlock();
      cv_.notify_all();
      return;
    }
    lock.unlock();
    if (has_spare_cpu() && spin_until_changed(my_generation)) return;
    lock.lock();
    cv_.wait(lock, [this, my_generation] {
      return generation_.load(std::memory_order_relaxed) != my_generation;
    });
  }

 private:
  /// True if the calling thread may run on more CPUs than there are
  /// parties.  Asked on every wait, so a thread pinned after the barrier
  /// was built is seen.
  bool has_spare_cpu() const {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
    return static_cast<std::size_t>(CPU_COUNT(&allowed)) > parties_;
  }

  /// Polls for the generation to move past `generation`; false if the spin
  /// budget ran out first.
  bool spin_until_changed(std::size_t generation) const {
    constexpr int kPollsPerClockRead = 64;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    while (true) {
      for (int i = 0; i < kPollsPerClockRead; ++i) {
        if (generation_.load(std::memory_order_acquire) != generation) return true;
#if defined(__x86_64__) || defined(__i386__)
        _mm_pause();
#endif
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }

  const std::size_t parties_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;  // guarded by mutex_
  /// Written under mutex_; read without it by spinning waiters.
  std::atomic<std::size_t> generation_{0};
};

}  // namespace lowdiff
