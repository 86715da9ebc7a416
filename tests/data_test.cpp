// Unit tests for the data plane primitives: wire codec, sequencer,
// out-buffer, receive tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>

#include "common/ring_deque.hpp"
#include "common/rng.hpp"
#include "data/out_buffer.hpp"
#include "data/receive_tracker.hpp"
#include "data/wire.hpp"

namespace stab::data {
namespace {

DataBatchFrame decode_batch(BytesView frame) {
  DataBatchFrame out;
  decode_data_batch(frame, out);
  return out;
}

TEST(Wire, DataRoundTrip) {
  DataFrame in;
  in.origin = 3;
  in.seq = 12345678901LL;
  in.payload = to_bytes("payload-bytes");
  in.virtual_size = 7777;
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kData);
  DataFrame out = decode_data(enc);
  EXPECT_EQ(out.origin, in.origin);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(out.virtual_size, in.virtual_size);
}

TEST(Wire, AckBatchRoundTrip) {
  AckBatchFrame in;
  in.reporter = 5;
  in.entries.push_back(AckEntry{1, 0, 99, {}});
  in.entries.push_back(AckEntry{2, 3, -1, to_bytes("extra")});
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kAckBatch);
  AckBatchFrame out = decode_ack_batch(enc);
  EXPECT_EQ(out.reporter, 5u);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0].about_origin, 1u);
  EXPECT_EQ(out.entries[0].seq, 99);
  EXPECT_EQ(out.entries[1].type, 3u);
  EXPECT_EQ(to_string(out.entries[1].extra), "extra");
}

TEST(Wire, ResumeRoundTrip) {
  ResumeFrame in;
  in.sender = 7;
  in.epoch = 0xdeadbeefcafeULL;
  in.receive_through = 424242;
  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kResume);
  ResumeFrame out = decode_resume(enc);
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.receive_through, in.receive_through);
  EXPECT_FALSE(out.reply);

  in.reply = true;
  in.receive_through = kNoSeq;  // restarted before receiving anything
  out = decode_resume(encode(in));
  EXPECT_TRUE(out.reply);
  EXPECT_EQ(out.receive_through, kNoSeq);
  EXPECT_THROW(decode_resume(encode(DataFrame{})), CodecError);
}

TEST(Wire, PrimaryEpochRoundTripsOnEveryFencedFrameKind) {
  // Failover fencing rides a PrimaryEpoch stamp on data, ack and RESUME
  // frames; every codec must carry it faithfully (and default it to 0 for
  // the pre-failover wire layout).
  DataFrame d;
  d.origin = 2;
  d.seq = 41;
  d.payload = to_bytes("m");
  d.primary_epoch = 7;
  EXPECT_EQ(decode_data(encode(d)).primary_epoch, 7u);
  DataView v = decode_data_view(encode(d));
  EXPECT_EQ(v.primary_epoch, 7u);
  Bytes direct = encode_data(2, 41, to_bytes("m"), 0, 9);
  EXPECT_EQ(decode_data_view(direct).primary_epoch, 9u);
  EXPECT_EQ(decode_data(encode_data(2, 41, to_bytes("m"), 0)).primary_epoch,
            0u);

  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 10;
  b.primary_epoch = 3;
  Bytes payload = to_bytes("bb");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(payload), 0});
  Bytes benc = encode(b);
  EXPECT_EQ(decode_batch(benc).primary_epoch, 3u);

  AckBatchFrame a;
  a.reporter = 4;
  a.primary_epoch = 5;
  a.entries.push_back(AckEntry{0, 0, 12, {}});
  EXPECT_EQ(decode_ack_batch(encode(a)).primary_epoch, 5u);

  ResumeFrame r;
  r.sender = 6;
  r.epoch = 2;
  r.receive_through = 100;
  r.primary_epoch = 8;
  ResumeFrame rout = decode_resume(encode(r));
  EXPECT_EQ(rout.primary_epoch, 8u);
  EXPECT_EQ(rout.epoch, 2u);  // session epoch and primary epoch are distinct
}

TEST(Wire, PeekRejectsGarbage) {
  EXPECT_FALSE(peek_kind(Bytes{}).has_value());
  EXPECT_FALSE(peek_kind(Bytes{0x77}).has_value());
}

TEST(Wire, PeekKnowsDataBatch) {
  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 0;
  Bytes p = to_bytes("x");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 0});
  EXPECT_EQ(peek_kind(encode(b)), FrameKind::kDataBatch);
}

TEST(Wire, PeekTreatsApplicationRangeAsUnknown) {
  // Kind bytes >= 0x40 belong to applications (send_raw's contract); every
  // one of them must come back unknown so the raw handler gets the frame.
  for (int k = 0x40; k <= 0xff; ++k)
    EXPECT_FALSE(peek_kind(Bytes{static_cast<uint8_t>(k)}).has_value())
        << "kind byte " << k;
  // The Stabilizer kinds themselves are recognized.
  EXPECT_TRUE(peek_kind(Bytes{0x01}).has_value());
  EXPECT_TRUE(peek_kind(Bytes{0x04}).has_value());
  EXPECT_EQ(peek_kind(Bytes{0x05}), FrameKind::kReportBatch);
  EXPECT_FALSE(peek_kind(Bytes{0x06}).has_value());  // unassigned gap
}

TEST(Wire, ReportBatchRoundTrip) {
  ReportBatchFrame in;
  in.forwarder = 9;
  ReportBlock b0;
  b0.reporter = 3;
  b0.primary_epoch = 2;
  b0.entries.push_back(ReportEntry{0, 0, 41});
  b0.entries.push_back(ReportEntry{1, 7, kNoSeq});
  ReportBlock b1;
  b1.reporter = 4;
  b1.primary_epoch = 0;
  b1.entries.push_back(ReportEntry{0, 1, 1234567890123LL});
  in.blocks.push_back(b0);
  in.blocks.push_back(b1);

  Bytes enc = encode(in);
  EXPECT_EQ(peek_kind(enc), FrameKind::kReportBatch);
  EXPECT_EQ(enc.capacity(), enc.size());  // single-allocation encoder
  ReportBatchFrame out = decode_report_batch(enc);
  EXPECT_EQ(out.forwarder, 9u);
  ASSERT_EQ(out.blocks.size(), 2u);
  EXPECT_EQ(out.blocks[0].reporter, 3u);
  EXPECT_EQ(out.blocks[0].primary_epoch, 2u);
  ASSERT_EQ(out.blocks[0].entries.size(), 2u);
  EXPECT_EQ(out.blocks[0].entries[0].about_origin, 0u);
  EXPECT_EQ(out.blocks[0].entries[0].seq, 41);
  EXPECT_EQ(out.blocks[0].entries[1].type, 7u);
  EXPECT_EQ(out.blocks[0].entries[1].seq, kNoSeq);
  EXPECT_EQ(out.blocks[1].reporter, 4u);
  ASSERT_EQ(out.blocks[1].entries.size(), 1u);
  EXPECT_EQ(out.blocks[1].entries[0].seq, 1234567890123LL);
}

TEST(Wire, ReportBatchRejectsEmptyAndMalformed) {
  ReportBatchFrame empty;
  empty.forwarder = 1;
  EXPECT_THROW(encode(empty), std::invalid_argument);

  // A block with zero entries is legal on the wire (an aggregator may relay
  // an epoch-only block), but a zero-block frame is not.
  Writer w;
  w.u8(5);  // kReportBatch
  w.u32(1);
  w.u32(0);  // nblocks = 0
  EXPECT_THROW(decode_report_batch(std::move(w).take()), CodecError);

  ReportBatchFrame in;
  in.forwarder = 2;
  ReportBlock b;
  b.reporter = 0;
  b.entries.push_back(ReportEntry{1, 0, 5});
  in.blocks.push_back(b);
  Bytes enc = encode(in);
  Bytes truncated(enc.begin(), enc.end() - 3);
  EXPECT_THROW(decode_report_batch(truncated), CodecError);
  EXPECT_THROW(decode_report_batch(encode(DataFrame{})), CodecError);
}

TEST(Wire, DataBatchRoundTripProperty) {
  Rng rng(0x5eed);
  for (int round = 0; round < 50; ++round) {
    DataBatchFrame in;
    in.origin = static_cast<NodeId>(rng.next_below(9));
    in.first_seq = static_cast<SeqNum>(rng.next_below(1u << 20));
    size_t count = 1 + rng.next_below(17);
    // Backing store must outlive the views.
    std::vector<Bytes> payloads(count);
    for (size_t i = 0; i < count; ++i) {
      payloads[i].resize(rng.next_below(300));  // sizes 0..299, empty legal
      for (auto& byte : payloads[i])
        byte = static_cast<uint8_t>(rng.next_u64());
      in.entries.push_back(DataBatchFrame::Entry{
          BytesView(payloads[i]), rng.next_bool(0.3) ? rng.next_below(5000)
                                                     : 0});
    }
    Bytes enc = encode(in);
    DataBatchFrame out = decode_batch(enc);
    EXPECT_EQ(out.origin, in.origin);
    EXPECT_EQ(out.first_seq, in.first_seq);
    ASSERT_EQ(out.entries.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(std::equal(out.entries[i].payload.begin(),
                             out.entries[i].payload.end(),
                             payloads[i].begin(), payloads[i].end()));
      EXPECT_EQ(out.entries[i].virtual_size, in.entries[i].virtual_size);
    }
  }
}

TEST(Wire, DataBatchRejectsEmpty) {
  DataBatchFrame empty;
  empty.origin = 2;
  empty.first_seq = 10;
  EXPECT_THROW(encode(empty), std::invalid_argument);

  // A hand-built zero-count frame must be rejected by the decoder too.
  Writer w;
  w.u8(4);  // kDataBatch
  w.u32(2);
  w.i64(10);
  w.u32(0);  // count = 0
  EXPECT_THROW(decode_batch(std::move(w).take()), CodecError);
}

TEST(Wire, DataBatchMalformedThrows) {
  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 5;
  Bytes p = to_bytes("payload");
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 0});
  b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 9});
  Bytes enc = encode(b);
  Bytes truncated(enc.begin(), enc.end() - 3);
  EXPECT_THROW(decode_batch(truncated), CodecError);
  EXPECT_THROW(decode_batch(encode(DataFrame{})), CodecError);
}

TEST(Wire, DataBatchDecodeReusesEntries) {
  Bytes p = to_bytes("abc");
  DataBatchFrame b;
  b.origin = 1;
  b.first_seq = 0;
  for (int i = 0; i < 8; ++i)
    b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 0});
  Bytes eight = encode(b);
  b.entries.resize(2);
  b.first_seq = 8;
  Bytes two = encode(b);

  DataBatchFrame out;
  decode_data_batch(eight, out);
  ASSERT_EQ(out.entries.size(), 8u);
  const auto* storage = out.entries.data();
  decode_data_batch(two, out);  // replaces the entries, keeps the storage
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.first_seq, 8);
  EXPECT_EQ(out.entries.data(), storage);
  EXPECT_EQ(to_string(out.entries[1].payload), "abc");
}

// A count field larger than the bytes left could hold must fail as
// CodecError before the decoder reserves storage for it (reserve(0xFFFFFFFF)
// would throw std::bad_alloc or exhaust memory instead).
TEST(Wire, DataBatchHostileCountThrowsCodecError) {
  Writer w;
  w.u8(4);  // kDataBatch
  w.u32(1);
  w.u32(0);
  w.i64(0);
  w.u32(0xFFFFFFFF);
  ASSERT_EQ(w.size(), 21u);
  EXPECT_THROW(decode_batch(w.bytes()), CodecError);
  // One 12-byte entry fits, two do not.
  Writer one;
  one.u8(4);
  one.u32(1);
  one.u32(0);
  one.i64(0);
  one.u32(2);
  one.blob({});
  one.u64(0);
  EXPECT_THROW(decode_batch(one.bytes()), CodecError);
}

TEST(Wire, AckBatchHostileCountThrowsCodecError) {
  Writer w;
  w.u8(2);  // kAckBatch
  w.u32(1);
  w.u32(0);
  w.u32(0xFFFFFFFF);
  EXPECT_THROW(decode_ack_batch(w.bytes()), CodecError);
  // Exactly enough bytes for the declared entries still decodes.
  AckBatchFrame a;
  a.reporter = 1;
  a.entries.push_back(AckEntry{0, 0, 3, {}});
  a.entries.push_back(AckEntry{1, 0, 4, {}});
  EXPECT_EQ(decode_ack_batch(encode(a)).entries.size(), 2u);
}

TEST(Wire, ReportBatchHostileCountsThrowCodecError) {
  Writer blocks;
  blocks.u8(5);  // kReportBatch
  blocks.u32(1);
  blocks.u32(0xFFFFFFFF);  // block count
  EXPECT_THROW(decode_report_batch(blocks.bytes()), CodecError);

  Writer entries;
  entries.u8(5);
  entries.u32(1);
  entries.u32(1);           // one block
  entries.u32(2);           // reporter
  entries.u32(0);           // epoch
  entries.u32(0xFFFFFFFF);  // entry count
  EXPECT_THROW(decode_report_batch(entries.bytes()), CodecError);
}

TEST(Wire, EncodersAreSingleAllocation) {
  // Every encoder precomputes its exact frame size, so the returned vector's
  // capacity equals its size — a growth re-allocation would leave capacity
  // above size. Regression for the Writer::reserve pass.
  DataFrame d;
  d.payload = to_bytes("some payload of a nontrivial size, 64 bytes or so..");
  Bytes enc = encode(d);
  EXPECT_EQ(enc.capacity(), enc.size());

  AckBatchFrame a;
  a.reporter = 1;
  for (int i = 0; i < 10; ++i)
    a.entries.push_back(AckEntry{0, 0, i, i % 2 ? to_bytes("extra") : Bytes{}});
  enc = encode(a);
  EXPECT_EQ(enc.capacity(), enc.size());

  enc = encode(ResumeFrame{});
  EXPECT_EQ(enc.capacity(), enc.size());

  DataBatchFrame b;
  b.origin = 0;
  b.first_seq = 0;
  Bytes p = to_bytes("0123456789");
  for (int i = 0; i < 8; ++i)
    b.entries.push_back(DataBatchFrame::Entry{BytesView(p), 3});
  enc = encode(b);
  EXPECT_EQ(enc.capacity(), enc.size());
}

TEST(Wire, DataViewAliasesFrame) {
  DataFrame d;
  d.origin = 4;
  d.seq = 77;
  d.payload = to_bytes("zero-copy");
  Bytes enc = encode(d);
  DataView v = decode_data_view(enc);
  EXPECT_EQ(v.origin, 4u);
  EXPECT_EQ(v.seq, 77);
  EXPECT_EQ(to_string(v.payload), "zero-copy");
  // The view points into the encoded buffer, not a copy.
  EXPECT_GE(v.payload.data(), enc.data());
  EXPECT_LT(v.payload.data(), enc.data() + enc.size());
}

TEST(Wire, DecodeWrongKindThrows) {
  DataFrame d;
  d.payload = to_bytes("x");
  Bytes enc = encode(d);
  EXPECT_THROW(decode_ack_batch(enc), CodecError);
}

TEST(Wire, DecodeTruncatedThrows) {
  DataFrame d;
  d.payload = to_bytes("hello world");
  Bytes enc = encode(d);
  enc.resize(enc.size() - 4);
  EXPECT_THROW(decode_data(enc), CodecError);
}

TEST(Sequencer, StartsAtZeroMonotonic) {
  Sequencer s;
  EXPECT_EQ(s.last_assigned(), kNoSeq);
  EXPECT_EQ(s.next(), 0);
  EXPECT_EQ(s.next(), 1);
  EXPECT_EQ(s.last_assigned(), 1);
}

TEST(OutBuffer, PushGetReclaim) {
  OutBuffer b;
  b.push(0, to_bytes("a"), 0);
  b.push(1, to_bytes("bb"), 10);
  b.push(2, to_bytes("ccc"), 0);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.buffered_bytes(), 1u + 2 + 10 + 3);
  ASSERT_NE(b.get(1), nullptr);
  EXPECT_EQ(to_string(b.get(1)->payload), "bb");
  EXPECT_EQ(b.get(1)->virtual_size, 10u);

  b.reclaim_through(1);
  EXPECT_EQ(b.base(), 2);
  EXPECT_EQ(b.get(0), nullptr);
  EXPECT_EQ(b.get(1), nullptr);
  ASSERT_NE(b.get(2), nullptr);
  EXPECT_EQ(b.buffered_bytes(), 3u);
}

TEST(OutBuffer, BufferedBytesIgnoresEncodedCache) {
  // The encoded-frame cache is an alternate representation of the payload,
  // not extra application buffering: buffered_bytes() (the paper's buffer
  // occupancy figure) must not move when the cache fills, and reclaim must
  // drop the cache with its slot.
  OutBuffer b;
  b.push(0, to_bytes("hello"), 7);
  b.push(1, to_bytes("world!"), 0);
  const uint64_t before = b.buffered_bytes();
  EXPECT_EQ(before, 5u + 7 + 6);

  const OutBuffer::Slot* s0 = b.get(0);
  s0->encoded = std::make_shared<const Bytes>(
      encode_data(0, 0, BytesView(s0->payload), s0->virtual_size));
  EXPECT_EQ(b.buffered_bytes(), before);

  std::weak_ptr<const Bytes> cached = b.get(0)->encoded;
  b.reclaim_through(0);
  EXPECT_EQ(b.buffered_bytes(), 6u);
  EXPECT_TRUE(cached.expired());  // the slot owned the last reference
}

TEST(OutBuffer, NonContiguousPushThrows) {
  OutBuffer b;
  b.push(0, {}, 0);
  EXPECT_THROW(b.push(2, {}, 0), std::logic_error);
  EXPECT_THROW(b.push(0, {}, 0), std::logic_error);
}

TEST(OutBuffer, ReclaimBeyondEndIsSafe) {
  OutBuffer b;
  b.push(0, to_bytes("x"), 0);
  b.reclaim_through(100);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.base(), 1);
  b.push(1, to_bytes("y"), 0);  // contiguity maintained after full reclaim
  EXPECT_EQ(b.get(1)->seq, 1);
}

TEST(OutBuffer, GetOutOfRange) {
  OutBuffer b;
  EXPECT_EQ(b.get(0), nullptr);
  EXPECT_EQ(b.get(-1), nullptr);
}

// The send buffer's chunk ring against a plain model: payload sizes from
// empty to more than one chunk, interleaved push / get / reclaim_through,
// byte-exact reads of every retained slot and exact buffered_bytes.
TEST(OutBuffer, ChunkRingMatchesModelProperty) {
  Rng rng(0xc4a7);
  OutBuffer b;
  std::deque<std::pair<Bytes, uint64_t>> model;  // retained, oldest first
  SeqNum base = 0;
  uint64_t model_bytes = 0;
  auto check = [&] {
    ASSERT_EQ(b.base(), base);
    ASSERT_EQ(b.size(), model.size());
    ASSERT_EQ(b.buffered_bytes(), model_bytes);
    for (size_t i = 0; i < model.size(); ++i) {
      const OutBuffer::Slot* s = b.get(base + static_cast<SeqNum>(i));
      ASSERT_NE(s, nullptr);
      ASSERT_EQ(s->seq, base + static_cast<SeqNum>(i));
      ASSERT_EQ(s->virtual_size, model[i].second);
      ASSERT_TRUE(std::equal(s->payload.begin(), s->payload.end(),
                             model[i].first.begin(), model[i].first.end()));
    }
    EXPECT_EQ(b.get(base - 1), nullptr);
    EXPECT_EQ(b.get(base + static_cast<SeqNum>(model.size())), nullptr);
  };
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.next_below(10);
    if (op < 6) {
      size_t len;
      const uint64_t shape = rng.next_below(20);
      if (shape == 0) len = 0;
      else if (shape == 1) len = OutBuffer::kChunkBytes + rng.next_below(5000);
      else if (shape == 2) len = OutBuffer::kChunkBytes - rng.next_below(64);
      else if (shape < 6) len = 1000 + rng.next_below(30000);
      else len = rng.next_below(200);
      Bytes p(len);
      for (auto& byte : p) byte = static_cast<uint8_t>(rng.next_u64());
      const uint64_t virt = rng.next_bool(0.2) ? rng.next_below(100) : 0;
      b.push(base + static_cast<SeqNum>(model.size()), p, virt);
      model_bytes += len + virt;
      model.emplace_back(std::move(p), virt);
    } else if (op < 9) {
      const size_t drop = model.empty() ? 0 : rng.next_below(model.size() + 1);
      b.reclaim_through(base + static_cast<SeqNum>(drop) - 1);
      for (size_t i = 0; i < drop; ++i) {
        model_bytes -= model.front().first.size() + model.front().second;
        model.pop_front();
      }
      base += static_cast<SeqNum>(drop);
    } else {
      check();
    }
  }
  check();
}

// Snapshot restore refills the send buffer through reset_base + push; the
// restored slots must read back byte-exact across chunk boundaries.
TEST(OutBuffer, ResetBaseAndRestoreAcrossChunks) {
  OutBuffer b;
  Bytes big(OutBuffer::kChunkBytes / 3 + 7);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  for (SeqNum s = 0; s < 5; ++s) b.push(s, big, 0);
  b.reclaim_through(4);
  ASSERT_TRUE(b.empty());
  b.reset_base(1000);
  std::vector<Bytes> restored;
  for (int i = 0; i < 9; ++i) {
    Bytes p(OutBuffer::kChunkBytes / 4 + static_cast<size_t>(i) * 11);
    for (size_t j = 0; j < p.size(); ++j)
      p[j] = static_cast<uint8_t>(i * 31 + static_cast<int>(j));
    b.push(1000 + i, p, 0);
    restored.push_back(std::move(p));
  }
  for (int i = 0; i < 9; ++i) {
    const OutBuffer::Slot* s = b.get(1000 + i);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(std::equal(s->payload.begin(), s->payload.end(),
                           restored[i].begin(), restored[i].end()));
  }
  EXPECT_THROW(b.reset_base(5000), std::logic_error);
  b.reclaim_through(1003);
  ASSERT_NE(b.get(1004), nullptr);
  EXPECT_TRUE(std::equal(b.get(1008)->payload.begin(),
                         b.get(1008)->payload.end(), restored[8].begin(),
                         restored[8].end()));
}

// RingDeque, the send buffer's slot and chunk ring, against std::deque: both ends, wrap-around and growth while
// wrapped, index access, and popped elements released at once.
TEST(RingDeque, MatchesStdDequeAndReleasesPopped) {
  RingDeque<std::shared_ptr<int>> ring;
  std::deque<int> model;
  Rng rng(3);
  for (int step = 0; step < 5000; ++step) {
    const uint64_t op = rng.next_below(4);
    if (op == 0) {
      ring.push_back(std::make_shared<int>(step));
      model.push_back(step);
    } else if (op == 1) {
      ring.push_front(std::make_shared<int>(step));
      model.push_front(step);
    } else if (!model.empty() && op == 2) {
      std::weak_ptr<int> w = ring.front();
      ring.pop_front();
      model.pop_front();
      EXPECT_TRUE(w.expired());
    } else if (!model.empty()) {
      ring.pop_back();
      model.pop_back();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(*ring.front(), model.front());
      ASSERT_EQ(*ring.back(), model.back());
      const size_t i = rng.next_below(model.size());
      ASSERT_EQ(*ring[i], model[i]);
    }
  }
  ring.release();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(ReceiveTracker, AcceptsInOrder) {
  ReceiveTracker t(2);
  EXPECT_EQ(t.received_through(0), kNoSeq);
  EXPECT_EQ(t.on_frame(0, 0), ReceiveTracker::Verdict::kAccept);
  EXPECT_EQ(t.on_frame(0, 1), ReceiveTracker::Verdict::kAccept);
  EXPECT_EQ(t.received_through(0), 1);
  EXPECT_EQ(t.received_through(1), kNoSeq);  // independent per origin
}

TEST(ReceiveTracker, ClassifiesDupAndGap) {
  ReceiveTracker t(1);
  t.on_frame(0, 0);
  EXPECT_EQ(t.on_frame(0, 0), ReceiveTracker::Verdict::kStaleDuplicate);
  EXPECT_EQ(t.on_frame(0, 5), ReceiveTracker::Verdict::kGap);
  EXPECT_EQ(t.received_through(0), 0);  // gap did not advance
  EXPECT_EQ(t.on_frame(0, 1), ReceiveTracker::Verdict::kAccept);
}

}  // namespace
}  // namespace stab::data
