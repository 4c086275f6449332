// Annotated mutex wrapper (leed::Mutex) + RAII guard (leed::MutexLock).
//
// std::mutex itself carries no thread-safety attributes, so GUARDED_BY(a
// std::mutex) cannot be checked by clang's analysis. This thin wrapper
// re-exports std::mutex as a proper CAPABILITY so `-Wthread-safety` can
// verify lock discipline at compile time. It adds no state and no
// overhead beyond the underlying mutex.
//
// Usage:
//   leed::Mutex mu_;
//   int counter_ GUARDED_BY(mu_);
//   void Bump() { MutexLock lock(&mu_); ++counter_; }
//   void BumpLocked() REQUIRES(mu_) { ++counter_; }

#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace leed {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock; the only sanctioned way to acquire a leed::Mutex outside
// of tests.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace leed
