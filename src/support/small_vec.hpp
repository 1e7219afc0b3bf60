// A vector that keeps its first N elements inline.
//
// The compiler builds one short list per node: a CFG node's
// predecessors (one or two, more only at wide joins) and a dataflow
// operator's operands (three or fewer but for wide loop entries and
// exits). A std::vector costs one heap allocation per node for those;
// SmallVec costs none until a list outgrows N, and then holds the
// elements on the heap like a vector. Elements must be trivially
// copyable (ids, literal operands).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "support/assert.hpp"

namespace ctdf::support {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  SmallVec() = default;
  SmallVec(const SmallVec& other) { append(other.begin(), other.end()); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      size_ = 0;
      append(other.begin(), other.end());
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T* data() { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] const T* data() const { return heap_ ? heap_.get() : inline_; }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    CTDF_ASSERT(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    CTDF_ASSERT(i < size_);
    return data()[i];
  }

  void push_back(const T& v) {
    if (size_ == capacity()) grow(size_ + 1);
    data()[size_++] = v;
  }

  /// Appends [first, last); the range must not alias this vector.
  void append(const T* first, const T* last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (size_ + n > capacity()) grow(size_ + n);
    std::copy(first, last, data() + size_);
    size_ += static_cast<std::uint32_t>(n);
  }

  /// n copies of v, replacing the contents.
  void assign(std::size_t n, const T& v) {
    size_ = 0;
    resize(n, v);
  }

  /// Grows with copies of v (value-initialized by default) or shrinks.
  void resize(std::size_t n, const T& v = T{}) {
    if (n > capacity()) grow(n);
    std::fill(data() + std::min<std::size_t>(size_, n), data() + n, v);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Removes the element at `pos`, keeping the order of the rest.
  void erase(const T* pos) {
    T* p = data() + (pos - data());
    std::copy(p + 1, end(), p);
    --size_;
  }

 private:
  [[nodiscard]] std::size_t capacity() const { return heap_ ? capacity_ : N; }

  void grow(std::size_t min_capacity) {
    const std::size_t cap = std::max(min_capacity, 2 * capacity());
    auto bigger = std::make_unique_for_overwrite<T[]>(cap);
    std::copy(begin(), end(), bigger.get());
    heap_ = std::move(bigger);
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void take(SmallVec& other) {
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    heap_ = std::move(other.heap_);
    if (!heap_) std::copy(other.inline_, other.inline_ + size_, inline_);
  }

  T inline_[N]{};
  std::unique_ptr<T[]> heap_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;  ///< of heap_, when set
};

}  // namespace ctdf::support
