// Growable circular double-ended queue.
//
// std::deque allocates a block whenever a queue streaming through it crosses
// into a new block and frees one whenever it leaves a block behind, so a
// steady FIFO costs an allocation every few elements. RingDeque keeps its
// elements in one power-of-two circular buffer that doubles when full and
// otherwise keeps its capacity: once warm, pushes and pops never touch the
// heap. A popped position is reset to T{} at once, so an element releases
// what it owns (a shared buffer, a callback's captures) when it leaves the
// queue, as with std::deque.
//
// Single-threaded; callers synchronize. T must be default-constructible and
// move-assignable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace stab {

template <class T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }

  /// i-th element from the front; i < size().
  T& operator[](size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & mask()]; }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T v) {
    grow_if_full();
    buf_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }
  void push_front(T v) {
    grow_if_full();
    head_ = (head_ + buf_.size() - 1) & mask();
    buf_[head_] = std::move(v);
    ++size_;
  }
  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }
  void pop_back() {
    --size_;
    buf_[(head_ + size_) & mask()] = T{};
  }

  /// Empties the queue and gives its storage back.
  void release() {
    buf_ = {};
    head_ = size_ = 0;
  }

 private:
  size_t mask() const { return buf_.size() - 1; }
  void grow_if_full() {
    if (size_ < buf_.size()) return;
    std::vector<T> next(buf_.empty() ? 16 : buf_.size() * 2);
    for (size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace stab
