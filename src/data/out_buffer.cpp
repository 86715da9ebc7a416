#include "data/out_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace stab::data {

namespace {
// An emptied slot ring larger than this gives its storage back, so a
// backlog built up during a long partition does not stay resident.
constexpr size_t kIdleSlotCapacity = size_t{1} << 16;
}  // namespace

void OutBuffer::push(SeqNum seq, BytesView payload, uint64_t virtual_size) {
  SeqNum expected = base_ + static_cast<SeqNum>(slots_.size());
  if (seq != expected)
    throw std::logic_error("OutBuffer: non-contiguous push (seq " +
                           std::to_string(seq) + ", expected " +
                           std::to_string(expected) + ")");
  buffered_bytes_ += payload.size() + virtual_size;
  slots_.push_back(Slot{seq, store(seq, payload), virtual_size, {}});
}

BytesView OutBuffer::store(SeqNum seq, BytesView payload) {
  if (payload.empty()) return {};
  if (chunks_.empty() ||
      chunks_.back().capacity - chunks_.back().used < payload.size()) {
    Chunk c;
    if (payload.size() <= kChunkBytes && !spare_.empty()) {
      c = std::move(spare_.back());
      spare_.pop_back();
      c.used = 0;
    } else {
      // for_overwrite: the bytes are written before they are read, so the
      // chunk is not zero-filled first.
      c.capacity = std::max(kChunkBytes, payload.size());
      c.data = std::make_unique_for_overwrite<uint8_t[]>(c.capacity);
    }
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_.back();
  uint8_t* dst = c.data.get() + c.used;
  std::memcpy(dst, payload.data(), payload.size());
  c.used += payload.size();
  c.last = seq;
  return BytesView(dst, payload.size());
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
  if (slots_.empty() && slots_.capacity() > kIdleSlotCapacity)
    slots_.release();
  // Seqs only grow, so a chunk whose newest payload is reclaimed holds no
  // live payload at all.
  while (!chunks_.empty() && chunks_.front().last < base_) {
    Chunk& c = chunks_.front();
    if (c.capacity == kChunkBytes && spare_.size() < kSpareChunks)
      spare_.push_back(std::move(c));
    chunks_.pop_front();
  }
}

}  // namespace stab::data
