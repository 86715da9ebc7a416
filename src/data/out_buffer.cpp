#include "data/out_buffer.hpp"

#include <stdexcept>

namespace stab::data {

void OutBuffer::push(SeqNum seq, Bytes payload, uint64_t virtual_size) {
  SeqNum expected = base_ + static_cast<SeqNum>(slots_.size());
  if (seq != expected)
    throw std::logic_error("OutBuffer: non-contiguous push (seq " +
                           std::to_string(seq) + ", expected " +
                           std::to_string(expected) + ")");
  buffered_bytes_ += payload.size() + virtual_size;
  slots_.push_back(Slot{seq, std::move(payload), virtual_size, {}});
}

const OutBuffer::Slot* OutBuffer::get(SeqNum seq) const {
  if (seq < base_) return nullptr;
  size_t idx = static_cast<size_t>(seq - base_);
  if (idx >= slots_.size()) return nullptr;
  return &slots_[idx];
}

void OutBuffer::reset_base(SeqNum base) {
  if (!slots_.empty())
    throw std::logic_error("OutBuffer: reset_base on a non-empty buffer");
  if (base > base_) base_ = base;
}

void OutBuffer::reclaim_through(SeqNum upto) {
  while (!slots_.empty() && base_ <= upto) {
    buffered_bytes_ -=
        slots_.front().payload.size() + slots_.front().virtual_size;
    slots_.pop_front();
    ++base_;
  }
}

}  // namespace stab::data
