// Send-side sequencing and buffering.
//
// Sequencer: the primary-site sequence counter — only the owner of a data
// pool assigns sequence numbers (paper §III-A), so one monotone counter per
// origin suffices.
//
// OutBuffer: holds sent messages until every peer has acknowledged receipt,
// at which point "the buffer space is reclaimed" (§III-B). It also serves
// retransmission reads for the go-back-N reliability layer used on lossy
// links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/ring_deque.hpp"
#include "common/types.hpp"

namespace stab::data {

class Sequencer {
 public:
  /// Sequence numbers start at 0 (so frontier kNoSeq = -1 naturally means
  /// "nothing stable").
  SeqNum next() { return next_++; }
  SeqNum last_assigned() const { return next_ - 1; }

  /// Recovery: never hand out a number <= `last` again (monotonic; a
  /// smaller argument is a no-op).
  void fast_forward(SeqNum last) {
    if (last + 1 > next_) next_ = last + 1;
  }

 private:
  SeqNum next_ = 0;
};

/// The send ring buffer. Payload bytes are copied into a FIFO of
/// fixed-size chunks that the buffer owns; each slot views its bytes in a
/// chunk. A chunk is released once every slot stored in it is reclaimed,
/// and up to kSpareChunks released chunks are kept for reuse, so a warm
/// push/reclaim cycle allocates nothing. A payload larger than a chunk gets
/// a chunk of its own, which is freed, not kept, on release.
class OutBuffer {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;
  static constexpr size_t kSpareChunks = 2;

  struct Slot {
    SeqNum seq = kNoSeq;
    /// View into a chunk of this buffer; valid until the slot is reclaimed
    /// (or the buffer destroyed). Wire frames are encoded copies, so no
    /// transport ever holds these bytes.
    BytesView payload;
    uint64_t virtual_size = 0;
    /// Encoded wire frame, filled lazily on first transmission and reused by
    /// every peer fan-out and go-back-N retransmit (encode-once). Shared so
    /// transports can hold the buffer refcounted after the slot is
    /// reclaimed. Not counted by buffered_bytes(): that figure models the
    /// paper's application buffer occupancy, and the cache is an encoding
    /// of the same payload, dropped with the slot on reclaim.
    mutable std::shared_ptr<const Bytes> encoded;
  };

  /// Appends a message, copying its payload; seq must be exactly last+1
  /// (FIFO stream).
  void push(SeqNum seq, BytesView payload, uint64_t virtual_size);

  /// Message with this seq, or nullptr if reclaimed / never pushed.
  const Slot* get(SeqNum seq) const;

  /// Drops every message with seq <= upto (all peers have it).
  void reclaim_through(SeqNum upto);

  /// Recovery: restart the (empty) buffer at `base` so pushes continue a
  /// restored sequencer. Throws std::logic_error if messages are retained.
  void reset_base(SeqNum base);

  SeqNum base() const { return base_; }          // lowest retained seq
  SeqNum last() const { return base_ + static_cast<SeqNum>(slots_.size()) - 1; }
  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  uint64_t buffered_bytes() const { return buffered_bytes_; }

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t capacity = 0;
    size_t used = 0;
    SeqNum last = kNoSeq;  // newest seq whose payload lives here
  };

  /// Copies `payload` into the newest chunk (or a fresh one) and returns
  /// the stored view.
  BytesView store(SeqNum seq, BytesView payload);

  SeqNum base_ = 0;  // seq of slots_.front()
  RingDeque<Slot> slots_;
  RingDeque<Chunk> chunks_;   // oldest first; back() takes new payloads
  std::vector<Chunk> spare_;  // released kChunkBytes chunks, for reuse
  uint64_t buffered_bytes_ = 0;
};

}  // namespace stab::data
