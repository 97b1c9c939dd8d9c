// Bounded lock-free single-producer / single-consumer ring queue — the
// boundary handoff channel between event domains (net/domain.hpp).
//
// Exactly one thread may call try_push (the producer) and exactly one
// may call try_pop (the consumer).  Capacity is fixed at construction
// and rounded up to a power of two; a full ring is the backpressure
// signal (the producer spills into an overflow buffer).
// head_ counts pushes, tail_ counts pops; both grow monotonically and
// are masked into the buffer, so full/empty are distinguishable without
// a spare slot.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <vector>

namespace empls::sw {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity = 1024)
      : buffer_(round_up_pow2(capacity)), mask_(buffer_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer only.  False when the ring is full.
  bool try_push(const T& item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= buffer_.size()) {
      return false;
    }
    buffer_[head & mask_] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only.  False when the ring is empty.
  bool try_pop(T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return false;
    }
    item = buffer_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Racy size estimate; exact only for the calling side's own view.
  [[nodiscard]] std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return buffer_.size(); }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
};

}  // namespace empls::sw
