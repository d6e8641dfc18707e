// Tests for binary trace capture and replay.
#include <algorithm>
#include <filesystem>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "npb/synthetic.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"
#include "sim/trace_file.hpp"

namespace tlbmap {
namespace {

std::vector<TraceEvent> drain(ThreadStream& stream) {
  std::vector<TraceEvent> events;
  for (;;) {
    const TraceEvent ev = stream.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    events.push_back(ev);
  }
  return events;
}

TEST(TraceFile, EmptyStreamRoundTrip) {
  TraceWriter writer;
  TraceReader reader(writer.finish());
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);  // sticky
}

TEST(TraceFile, SimpleRoundTrip) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(4096, AccessType::kRead, 0));
  writer.write(TraceEvent::make_access(4104, AccessType::kWrite, 7));
  writer.write(TraceEvent::make_barrier());
  writer.write(TraceEvent::make_access(64, AccessType::kRead, 0));
  TraceReader reader(writer.finish());

  TraceEvent ev = reader.next();
  EXPECT_EQ(ev.kind, TraceEvent::Kind::kAccess);
  EXPECT_EQ(ev.access.addr, 4096u);
  EXPECT_EQ(ev.access.type, AccessType::kRead);
  EXPECT_EQ(ev.access.compute_gap, 0u);

  ev = reader.next();
  EXPECT_EQ(ev.access.addr, 4104u);
  EXPECT_EQ(ev.access.type, AccessType::kWrite);
  EXPECT_EQ(ev.access.compute_gap, 7u);

  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kBarrier);
  EXPECT_EQ(reader.next().access.addr, 64u);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
}

TEST(TraceFile, RejectsGarbage) {
  EXPECT_THROW(TraceReader({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(TraceReader({'T', 'L', 'B', 'T', 99}),
               std::invalid_argument);
}

TEST(TraceFile, ErrorsCarryOffsetAndRecordIndex) {
  // Truncated header: buffer shorter than magic + version.
  try {
    TraceReader({1, 2, 3});
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncatedTrace);
    EXPECT_EQ(e.byte_offset(), 3u);
    EXPECT_NE(std::string(e.what()).find("at byte 3"), std::string::npos);
  }
  // Unsupported version: offset pins the version byte.
  try {
    TraceReader({'T', 'L', 'B', 'T', 99});
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
    EXPECT_EQ(e.byte_offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
  }
}

TEST(TraceFile, BadRecordHeaderNamesByteAndRecord) {
  // Valid header, one barrier, then a byte that is neither a record kind
  // nor an access header (bit 1 clear, nonzero).
  TraceReader reader({'T', 'L', 'B', 'T', 1, 0x00, 0x41});
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kBarrier);
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
    EXPECT_EQ(e.byte_offset(), 6u);   // the offending byte
    EXPECT_EQ(e.record_index(), 1u);  // second record (0-based)
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos);
  }
}

/// k good access records followed by a bad record header byte.
std::vector<std::uint8_t> good_then_bad(int k) {
  TraceWriter writer;
  for (int i = 0; i < k; ++i) {
    writer.write(TraceEvent::make_access(4096u + 8u * static_cast<unsigned>(i),
                                         AccessType::kRead, 1));
  }
  std::vector<std::uint8_t> bytes = writer.finish();
  bytes.back() = 0x41;  // the end marker becomes a bad header
  return bytes;
}

TEST(TraceFile, FillStopsBeforeBadRecordAndThrowsNext) {
  constexpr int kGood = 5;
  const std::vector<std::uint8_t> bytes = good_then_bad(kGood);

  // Per-event reading: the error surfaces on the call after the k-th event.
  TraceReader per_event(bytes);
  for (int i = 0; i < kGood; ++i) {
    ASSERT_EQ(per_event.next().kind, TraceEvent::Kind::kAccess);
  }
  std::size_t want_offset = 0;
  std::uint64_t want_record = 0;
  try {
    per_event.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    want_offset = e.byte_offset();
    want_record = e.record_index();
  }
  EXPECT_EQ(want_offset, bytes.size() - 1);
  EXPECT_EQ(want_record, static_cast<std::uint64_t>(kGood));

  TraceReader batched(bytes);
  std::vector<TraceEvent> out(64);
  ASSERT_EQ(batched.fill(out), static_cast<std::size_t>(kGood));
  EXPECT_EQ(out[kGood - 1].access.addr, 4096u + 8u * (kGood - 1));
  for (int attempt = 0; attempt < 2; ++attempt) {  // the error is sticky
    try {
      batched.fill(out);
      FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
      EXPECT_EQ(e.byte_offset(), want_offset);
      EXPECT_EQ(e.record_index(), want_record);
    }
  }
}

TEST(TraceFile, CorruptRecordingFailsTheRun) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.private_pages = 4;
  spec.iterations = 1;
  const auto live = make_synthetic(spec);
  std::vector<std::vector<std::uint8_t>> buffers = record_workload(*live, 1);
  buffers.back().back() = 0x41;  // corrupt the last thread's tail
  const RecordedWorkload recorded(std::move(buffers));

  Machine m((MachineConfig()));
  std::vector<std::unique_ptr<ThreadStream>> streams;
  Machine::RunConfig cfg;
  for (ThreadId t = 0; t < recorded.num_threads(); ++t) {
    streams.push_back(recorded.stream(t, 1));
    cfg.thread_to_core.push_back(t);
  }
  EXPECT_THROW(m.run(std::move(streams), cfg), TraceFormatError);
}

TEST(TraceFile, TruncatedVarintIsStructured) {
  // Access record whose varint address never terminates (all
  // continuation bits set, then EOF).
  TraceReader reader({'T', 'L', 'B', 'T', 1, 0x02, 0x80, 0x80});
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTruncatedTrace);
    EXPECT_EQ(e.to_error().code, ErrorCode::kTruncatedTrace);
  }
}

TEST(TraceFile, OverlongVarintIsMalformed) {
  // 11 continuation bytes push the shift past 63 bits.
  std::vector<std::uint8_t> bytes = {'T', 'L', 'B', 'T', 1, 0x02};
  for (int i = 0; i < 11; ++i) bytes.push_back(0x80);
  bytes.push_back(0x01);
  TraceReader reader(bytes);
  try {
    reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedTrace);
  }
}

TEST(TraceFile, ValidateTraceAcceptsWriterOutput) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(4096, AccessType::kRead, 0));
  writer.write(TraceEvent::make_access(4104, AccessType::kWrite, 7));
  writer.write(TraceEvent::make_barrier());
  const auto bytes = writer.finish();
  const Expected<TraceStats> stats = validate_trace(bytes);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->accesses, 2u);
  EXPECT_EQ(stats->barriers, 1u);
  EXPECT_EQ(stats->records, 4u);  // incl. the end marker
  EXPECT_EQ(stats->bytes, bytes.size());
}

TEST(TraceFile, TryLoadRecordingRejectsCorruptFile) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPrivate;
  spec.private_pages = 4;
  spec.iterations = 1;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, 1);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tlbmap_test_corrupt_rec";
  std::filesystem::remove_all(dir);
  save_recording(buffers, dir);
  ASSERT_TRUE(try_load_recording(dir).has_value());

  // Truncate thread_0's file mid-stream: structured error, names the file.
  std::filesystem::resize_file(dir / "thread_0.tlbt", 6);
  const auto result = try_load_recording(dir);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("thread_0.tlbt"), std::string::npos);
  EXPECT_THROW(load_recording(dir), std::runtime_error);
  std::filesystem::remove_all(dir);

  const auto missing = try_load_recording(dir);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

TEST(TraceFile, RandomEventsRoundTripExactly) {
  std::mt19937_64 rng(5);
  TraceWriter writer;
  std::vector<TraceEvent> original;
  for (int i = 0; i < 5000; ++i) {
    if (rng() % 20 == 0) {
      original.push_back(TraceEvent::make_barrier());
    } else {
      original.push_back(TraceEvent::make_access(
          (rng() % (1u << 24)) * 8,
          (rng() % 2) != 0u ? AccessType::kWrite : AccessType::kRead,
          static_cast<std::uint32_t>(rng() % 100)));
    }
    writer.write(original.back());
  }
  TraceReader reader(writer.finish());
  const std::vector<TraceEvent> replayed = drain(reader);
  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(replayed[i].kind, original[i].kind) << i;
    if (original[i].kind == TraceEvent::Kind::kAccess) {
      ASSERT_EQ(replayed[i].access.addr, original[i].access.addr) << i;
      ASSERT_EQ(replayed[i].access.type, original[i].access.type) << i;
      ASSERT_EQ(replayed[i].access.compute_gap,
                original[i].access.compute_gap)
          << i;
    }
  }
}

TEST(TraceFile, SequentialTracesCompressWell) {
  // A sequential sweep delta-encodes to ~2 bytes per access.
  TraceWriter writer;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    writer.write(TraceEvent::make_access(
        (VirtAddr{1} << 32) + static_cast<VirtAddr>(i) * 8,
        AccessType::kRead, 0));
  }
  const auto bytes = writer.finish();
  EXPECT_LT(bytes.size(), static_cast<std::size_t>(n) * 3);
}

TEST(TraceFile, RecordedWorkloadReplaysIdentically) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 8;
  spec.iterations = 2;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, /*seed=*/9);
  RecordedWorkload recorded(buffers);
  ASSERT_EQ(recorded.num_threads(), live->num_threads());

  for (ThreadId t = 0; t < live->num_threads(); ++t) {
    const auto a = drain(*live->stream(t, 9));
    const auto b = drain(*recorded.stream(t, /*seed ignored*/ 12345));
    ASSERT_EQ(a.size(), b.size()) << "thread " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].kind, b[i].kind);
      if (a[i].kind == TraceEvent::Kind::kAccess) {
        ASSERT_EQ(a[i].access.addr, b[i].access.addr);
        ASSERT_EQ(a[i].access.type, b[i].access.type);
        ASSERT_EQ(a[i].access.compute_gap, b[i].access.compute_gap);
      }
    }
    EXPECT_EQ(recorded.accesses_of(t), live->accesses_of(t));
  }
}

TEST(TraceFile, RecordedRunMatchesLiveRun) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kRing;
  spec.private_pages = 16;
  spec.iterations = 2;
  const auto live = make_synthetic(spec);
  RecordedWorkload recorded(record_workload(*live, 4));

  auto run = [](const Workload& w, std::uint64_t seed) {
    Machine m((MachineConfig()));
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (ThreadId t = 0; t < w.num_threads(); ++t) {
      streams.push_back(w.stream(t, seed));
    }
    Machine::RunConfig cfg;
    for (int t = 0; t < w.num_threads(); ++t) cfg.thread_to_core.push_back(t);
    return m.run(std::move(streams), cfg);
  };
  const MachineStats a = run(*live, 4);
  const MachineStats b = run(recorded, 4);
  EXPECT_EQ(a.execution_cycles, b.execution_cycles);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(TraceFile, SaveLoadRoundTrip) {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPrivate;
  spec.private_pages = 4;
  spec.iterations = 1;
  const auto live = make_synthetic(spec);
  const auto buffers = record_workload(*live, 1);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tlbmap_test_recording";
  std::filesystem::remove_all(dir);
  save_recording(buffers, dir);
  const auto loaded = load_recording(dir);
  ASSERT_EQ(loaded.size(), buffers.size());
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    EXPECT_EQ(loaded[t], buffers[t]) << "thread " << t;
  }
  std::filesystem::remove_all(dir);
  EXPECT_THROW(load_recording(dir), std::runtime_error);
}

TEST(TraceFile, WriterEndIsIdempotent) {
  TraceWriter writer;
  writer.write(TraceEvent::make_access(8, AccessType::kRead, 0));
  writer.write(TraceEvent::make_end());
  const auto bytes = writer.finish();  // no double end marker
  TraceReader reader(bytes);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kAccess);
  EXPECT_EQ(reader.next().kind, TraceEvent::Kind::kEnd);
}

TEST(TraceFile, CompressionBeatsNaiveEncodingOnNpb) {
  // The headline contrast with trace-file related work: one SP thread's
  // trace (hundreds of thousands of accesses) serialises to ~2-3 bytes per
  // access instead of the 16 a raw record would take.
  WorkloadParams params;
  params.iter_scale = 0.25;
  const auto sp = make_npb_workload("SP", params);
  TraceWriter writer;
  const auto stream = sp->stream(0, 1);
  std::uint64_t accesses = 0;
  for (;;) {
    const TraceEvent ev = stream->next();
    writer.write(ev);
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++accesses;
  }
  const auto bytes = writer.finish();
  EXPECT_LT(bytes.size(), accesses * 4);
  EXPECT_GT(accesses, 10'000u);
}

// ---------------------------------------------------------------------------
// TraceStreamDecoder: the incremental, non-throwing decoder behind the
// mapping service's ingest path (DESIGN.md Sec. 16).

std::vector<std::uint8_t> small_recorded_buffer() {
  SyntheticSpec spec;
  spec.pattern = SyntheticSpec::Pattern::kPairs;
  spec.private_pages = 8;
  spec.iterations = 2;
  return record_workload(*make_synthetic(spec), /*seed=*/3)[0];
}

/// Drains every currently decodable record; returns false on kNeedMore,
/// true on kEnd, FAILs the test on a structured error.
bool drain_decoder(TraceStreamDecoder& decoder,
                   std::vector<TraceEvent>* out) {
  for (;;) {
    TraceEvent event;
    const auto status = decoder.next(&event);
    if (!status.has_value()) {
      ADD_FAILURE() << status.error().message;
      return true;
    }
    if (*status == TraceStreamDecoder::Status::kNeedMore) return false;
    if (*status == TraceStreamDecoder::Status::kEnd) return true;
    out->push_back(event);
  }
}

TEST(TraceStreamDecoder, ByteAtATimeMatchesWholeBufferReplay) {
  const auto bytes = small_recorded_buffer();
  TraceReader reader(bytes);
  const std::vector<TraceEvent> expected = drain(reader);

  TraceStreamDecoder decoder;
  std::vector<TraceEvent> streamed;
  bool ended = false;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);  // worst-case fragmentation
    ended = drain_decoder(decoder, &streamed);
  }
  EXPECT_TRUE(ended);
  EXPECT_TRUE(decoder.finished());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.offset(), bytes.size());
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(streamed[i].kind, expected[i].kind) << i;
    if (expected[i].kind == TraceEvent::Kind::kAccess) {
      ASSERT_EQ(streamed[i].access.addr, expected[i].access.addr) << i;
      ASSERT_EQ(streamed[i].access.type, expected[i].access.type) << i;
      ASSERT_EQ(streamed[i].access.compute_gap,
                expected[i].access.compute_gap)
          << i;
    }
  }
}

TEST(TraceStreamDecoder, NeedMoreMidRecordThenResumes) {
  // Header + one access whose varint splits across feeds.
  const std::vector<std::uint8_t> bytes = {'T', 'L', 'B', 'T', 1,
                                           0x02, 0x80, 0x20, 0x01};
  TraceStreamDecoder decoder;
  TraceEvent event;
  decoder.feed(bytes.data(), 7);  // ends inside the address varint
  auto status = decoder.next(&event);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, TraceStreamDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 2u);  // undecoded record tail

  decoder.feed(bytes.data() + 7, 2);
  status = decoder.next(&event);
  ASSERT_TRUE(status.has_value());
  ASSERT_EQ(*status, TraceStreamDecoder::Status::kEvent);
  EXPECT_EQ(event.kind, TraceEvent::Kind::kAccess);
  EXPECT_EQ(event.access.addr, 0x1000u);  // varint 0x80 0x20 = 4096

  status = decoder.next(&event);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, TraceStreamDecoder::Status::kEnd);
  // kEnd is terminal and idempotent.
  EXPECT_EQ(*decoder.next(&event), TraceStreamDecoder::Status::kEnd);
}

// ---------------------------------------------------------------------------
// One corrupt-trace corpus for every entry point: validate_trace, a drained
// TraceReader, and TraceStreamDecoder fed whole and byte by byte must agree
// on the error code, the byte offset and the record index.

/// How one entry point ended on a fixture.
struct Outcome {
  enum class Kind { kError, kNeedMore, kEnd } kind = Kind::kEnd;
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::uint64_t offset = 0;
  std::uint64_t record = 0;
  std::string message;
};

Outcome error_outcome(ErrorCode code, std::uint64_t offset,
                      std::uint64_t record, std::string message = {}) {
  return Outcome{Outcome::Kind::kError, code, offset, record,
                 std::move(message)};
}

Outcome validate_outcome(const std::vector<std::uint8_t>& bytes) {
  const Expected<TraceStats> stats = validate_trace(bytes);
  if (stats.has_value()) return Outcome{};
  // validate_trace's Error carries the offset and record in its message
  // only; the message check below compares them.
  return error_outcome(stats.error().code, 0, 0, stats.error().message);
}

Outcome reader_outcome(const std::vector<std::uint8_t>& bytes) {
  try {
    TraceReader reader(bytes);
    drain(reader);
    return Outcome{};
  } catch (const TraceFormatError& e) {
    return error_outcome(e.code(), e.byte_offset(), e.record_index(),
                         e.what());
  }
}

/// Feeds `bytes` in `step`-byte fragments, draining after each one.
Outcome decoder_outcome(const std::vector<std::uint8_t>& bytes,
                        std::size_t step) {
  TraceStreamDecoder decoder;
  Expected<TraceStreamDecoder::Status> status =
      TraceStreamDecoder::Status::kNeedMore;
  for (std::size_t at = 0; at < bytes.size() && status.has_value();
       at += step) {
    decoder.feed(bytes.data() + at, std::min(step, bytes.size() - at));
    TraceEvent event;
    do {
      status = decoder.next(&event);
    } while (status.has_value() &&
             *status == TraceStreamDecoder::Status::kEvent);
  }
  if (status.has_value()) {
    Outcome ended;
    if (*status == TraceStreamDecoder::Status::kNeedMore) {
      ended.kind = Outcome::Kind::kNeedMore;
    }
    return ended;
  }
  const TraceFormatError* failure = decoder.failure();
  EXPECT_NE(failure, nullptr);
  if (failure == nullptr) return Outcome{};
  EXPECT_EQ(status.error().message, failure->what());
  // Sticky: the decoder stays failed, even across more feed() calls.
  TraceEvent event;
  decoder.feed({0x00});
  const auto again = decoder.next(&event);
  EXPECT_FALSE(again.has_value());
  if (!again.has_value()) {
    EXPECT_EQ(again.error().message, failure->what());
  }
  return error_outcome(failure->code(), failure->byte_offset(),
                       failure->record_index(), failure->what());
}

TEST(TraceDecode, CorruptCorpusFailsAlikeOnEveryEntryPoint) {
  using Kind = Outcome::Kind;
  struct Fixture {
    const char* label;
    std::vector<std::uint8_t> bytes;
    Outcome want;  ///< validate_trace and TraceReader
    /// The stream decoder cannot tell a cut-off stream from one still
    /// arriving: truncation fixtures leave it at kNeedMore.
    bool decoder_needs_more = false;
  };
  std::vector<std::uint8_t> overlong = {'T', 'L', 'B', 'T', 1, 0x02};
  for (int i = 0; i < 11; ++i) overlong.push_back(0x80);
  overlong.insert(overlong.end(), {0x01, 0x01});
  // Access with the gap flag whose gap varint (bytes 7..11) decodes above
  // 32 bits: the writer never emits one, so it is corruption, not framing.
  const std::vector<std::uint8_t> wide_gap = {
      'T', 'L', 'B', 'T', 1, 0x0a, 0x05, 0x80, 0x80, 0x80, 0x80, 0x20, 0x01};
  const std::vector<Fixture> fixtures = {
      {"empty", {}, error_outcome(ErrorCode::kTruncatedTrace, 0, 0), true},
      {"short header", {'T', 'L'},
       error_outcome(ErrorCode::kTruncatedTrace, 2, 0), true},
      {"bad magic", {'X', 'L', 'B', 'T', 1, 0x01},
       error_outcome(ErrorCode::kMalformedTrace, 0, 0)},
      {"bad version", {'T', 'L', 'B', 'T', 7, 0x01},
       error_outcome(ErrorCode::kMalformedTrace, 4, 0)},
      {"bad record header", {'T', 'L', 'B', 'T', 1, 0x00, 0x41, 0x01},
       error_outcome(ErrorCode::kMalformedTrace, 6, 1)},
      {"truncated varint", {'T', 'L', 'B', 'T', 1, 0x00, 0x02, 0x80},
       error_outcome(ErrorCode::kTruncatedTrace, 8, 1), true},
      {"overlong varint", overlong,
       error_outcome(ErrorCode::kMalformedTrace, 6, 0)},
      {"out-of-range gap", wide_gap,
       error_outcome(ErrorCode::kCorruptTrace, 7, 0)},
      {"trailing bytes", {'T', 'L', 'B', 'T', 1, 0x00, 0x01, 0x00, 0x00},
       error_outcome(ErrorCode::kMalformedTrace, 7, 2)},
  };
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.label);
    const std::string at = " at byte " + std::to_string(f.want.offset) +
                           ", record " + std::to_string(f.want.record);
    const Outcome validated = validate_outcome(f.bytes);
    ASSERT_EQ(validated.kind, Kind::kError);
    EXPECT_EQ(validated.code, f.want.code);
    EXPECT_TRUE(validated.message.ends_with(at)) << validated.message;

    const Outcome read = reader_outcome(f.bytes);
    ASSERT_EQ(read.kind, Kind::kError);
    EXPECT_EQ(read.code, f.want.code);
    EXPECT_EQ(read.offset, f.want.offset);
    EXPECT_EQ(read.record, f.want.record);
    EXPECT_EQ(read.message, validated.message);

    for (const std::size_t step : {f.bytes.size() + 1, std::size_t{1}}) {
      SCOPED_TRACE(step == 1 ? "byte by byte" : "whole");
      const Outcome decoded = decoder_outcome(f.bytes, step);
      if (f.decoder_needs_more) {
        EXPECT_EQ(decoded.kind, Kind::kNeedMore);
        continue;
      }
      ASSERT_EQ(decoded.kind, Kind::kError);
      EXPECT_EQ(decoded.code, f.want.code);
      EXPECT_EQ(decoded.offset, f.want.offset);
      EXPECT_EQ(decoded.record, f.want.record);
      EXPECT_EQ(decoded.message, validated.message);
    }
  }

  // A stream without its end marker differs by design per entry point:
  // replay ends it at the record boundary, validation calls it truncated
  // (a writer always emits the marker), the stream decoder waits for more.
  const std::vector<std::uint8_t> no_end = {'T', 'L', 'B', 'T', 1, 0x00};
  const Outcome validated = validate_outcome(no_end);
  ASSERT_EQ(validated.kind, Kind::kError);
  EXPECT_EQ(validated.code, ErrorCode::kTruncatedTrace);
  EXPECT_TRUE(validated.message.ends_with(" at byte 6, record 1"))
      << validated.message;
  EXPECT_EQ(reader_outcome(no_end).kind, Kind::kEnd);
  EXPECT_EQ(decoder_outcome(no_end, no_end.size()).kind, Kind::kNeedMore);
  EXPECT_EQ(decoder_outcome(no_end, 1).kind, Kind::kNeedMore);
}

TEST(TraceStreamDecoder, StateRestoreResumesMidStream) {
  const auto bytes = small_recorded_buffer();
  const std::size_t split = bytes.size() / 3;

  // Reference: one decoder over the whole stream.
  TraceStreamDecoder reference;
  reference.feed(bytes);
  std::vector<TraceEvent> expected;
  ASSERT_TRUE(drain_decoder(reference, &expected));

  // Interrupted: decode a prefix, snapshot, restore into a fresh decoder
  // (simulating a service checkpoint), feed the remainder.
  TraceStreamDecoder first;
  first.feed(bytes.data(), split);
  std::vector<TraceEvent> events;
  EXPECT_FALSE(drain_decoder(first, &events));
  const TraceStreamDecoder::State snapshot = first.state();
  EXPECT_EQ(snapshot.consumed + snapshot.pending.size(), split);

  TraceStreamDecoder resumed;
  resumed.restore(snapshot);
  EXPECT_EQ(resumed.state(), snapshot);
  resumed.feed(bytes.data() + split, bytes.size() - split);
  ASSERT_TRUE(drain_decoder(resumed, &events));
  EXPECT_TRUE(resumed.finished());
  EXPECT_EQ(resumed.offset(), bytes.size());
  EXPECT_EQ(resumed.records(), reference.records());
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(events[i].kind, expected[i].kind) << i;
    if (expected[i].kind == TraceEvent::Kind::kAccess) {
      ASSERT_EQ(events[i].access.addr, expected[i].access.addr) << i;
    }
  }
}

}  // namespace
}  // namespace tlbmap
