// Compact binary trace capture and replay.
//
// The related work the paper criticises stores raw memory traces — "more
// than 100 gigabytes" even compressed (Sec. II). This module exists for the
// cases where a trace *is* wanted (debugging a detector, replaying an exact
// interleaving, archiving a workload): events are delta-encoded with
// variable-length integers, so the structured NPB streams compress to a few
// bytes per access instead of 16.
//
// Format (little-endian, per thread, one file or buffer each):
//   magic "TLBT", u8 version, then a sequence of records:
//     0x00              barrier
//     0x01              end (also implied by EOF)
//     0x02 | type<<1... access: u8 header (bit0..1 kind, bit2 type,
//                        bit3 gap-present, bit4 addr-is-delta),
//                        varint addr-or-zigzag-delta, [varint gap]
// One decoder, TraceStreamDecoder, parses the format. TraceReader adapts it
// to ThreadStream, so recorded traces plug directly into the Machine
// (RecordedWorkload bundles one buffer per thread), and validate_trace
// adapts it to a non-throwing whole-buffer check.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/expected.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"

namespace tlbmap {

/// Structured parse failure: every malformed or truncated trace error
/// carries the byte offset where decoding stopped and the index of the
/// record being decoded, both embedded in what() and exposed as fields.
/// Derives from std::invalid_argument so callers that catch the historical
/// exception type keep working.
///
/// Offset convention, the same at every entry point (TraceStreamDecoder,
/// TraceReader, validate_trace): byte_offset() is the absolute offset of
/// the first byte of the element that failed — the magic (0) or version
/// byte (4) of the header, a bad record header byte, the first byte of an
/// overlong varint or of an out-of-range compute gap, the first byte after
/// the end marker — or the end of the input when it stops mid-element or
/// before the end marker. record_index() is the zero-based index of the
/// record that element belongs to (0 for the header; for bytes after the
/// end marker, the end marker's index plus one).
class TraceFormatError : public std::invalid_argument {
 public:
  TraceFormatError(ErrorCode code, const std::string& what,
                   std::size_t byte_offset, std::uint64_t record_index);

  ErrorCode code() const { return code_; }
  /// Byte position in the buffer where decoding failed.
  std::size_t byte_offset() const { return byte_offset_; }
  /// Zero-based index of the record being decoded when decoding failed.
  std::uint64_t record_index() const { return record_index_; }
  /// The same information as an Expected-compatible Error.
  Error to_error() const { return Error{code_, what()}; }

 private:
  ErrorCode code_;
  std::size_t byte_offset_;
  std::uint64_t record_index_;
};

/// Summary returned by validate_trace() on a well-formed buffer.
struct TraceStats {
  std::uint64_t records = 0;   ///< total records decoded (incl. end marker)
  std::uint64_t accesses = 0;  ///< access records
  std::uint64_t barriers = 0;  ///< barrier records
  std::size_t bytes = 0;       ///< buffer size
};

/// Decodes a serialised buffer end to end without replaying it, returning
/// either summary statistics or the decoder's structured error. A buffer
/// that ends before its end marker is kTruncatedTrace: a writer always
/// emits one, so its absence means the tail of the file was lost. Never
/// throws.
Expected<TraceStats> validate_trace(const std::vector<std::uint8_t>& bytes);

/// Serialises one thread's events into a byte buffer.
class TraceWriter {
 public:
  TraceWriter();

  void write(const TraceEvent& event);

  /// Finishes the stream (writes the end marker) and returns the buffer.
  std::vector<std::uint8_t> finish();

  std::uint64_t events_written() const { return events_; }

 private:
  void put_varint(std::uint64_t value);

  std::vector<std::uint8_t> bytes_;
  VirtAddr last_addr_ = 0;
  std::uint64_t events_ = 0;
  bool finished_ = false;
};

/// The TLBT decoder — the only one: TraceReader and validate_trace() are
/// adapters over it. Incremental and non-throwing, for byte streams that
/// arrive in arbitrary chunks (the mapping service's ingest path, DESIGN.md
/// Sec. 16): callers feed() fragments as they arrive and drain complete
/// records with next(); a record split across chunks reports kNeedMore
/// until its bytes land. Errors are structured and sticky (see
/// TraceFormatError for the offset convention): kMalformedTrace for bytes
/// that break the framing — including any byte after the end marker,
/// whether it arrives with the marker or in a later chunk — and
/// kCorruptTrace for records that decode to impossible values. The decoder
/// never reports truncation; whether input that stops at kNeedMore is
/// truncated is the caller's call.
class TraceStreamDecoder {
 public:
  enum class Status {
    kEvent,     ///< one record decoded into *out
    kNeedMore,  ///< buffered bytes end mid-record; feed() more
    kEnd,       ///< explicit end marker reached (terminal)
  };

  /// Serializable decoder position (service session checkpoints): the
  /// undecoded tail plus the cursors that make decoding resumable.
  struct State {
    std::vector<std::uint8_t> pending;  ///< fed but not yet decoded bytes
    std::uint64_t consumed = 0;         ///< absolute offset of pending[0]
    VirtAddr last_addr = 0;
    std::uint64_t records = 0;
    bool header_done = false;
    bool done = false;

    bool operator==(const State&) const = default;
  };

  TraceStreamDecoder() = default;
  /// Starts with `bytes` already fed, adopting the buffer without a copy.
  explicit TraceStreamDecoder(std::vector<std::uint8_t> bytes)
      : buffer_(std::move(bytes)) {}

  /// Appends raw stream bytes (any fragment size, including zero).
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// Checks and consumes the 5-byte file header if it is still pending
  /// (next() does this first). Returns false while fewer than 5 bytes are
  /// buffered; a bad header is the same sticky error next() returns.
  Expected<bool> read_header();

  /// Decodes the next complete record. On kEvent, *out holds it. A
  /// malformed or corrupt stream returns the structured error and the
  /// decoder stays failed (every later call repeats the error).
  Expected<Status> next(TraceEvent* out);

  /// The sticky error as a TraceFormatError; null until decoding fails.
  const TraceFormatError* failure() const {
    return failed_ ? &*failed_ : nullptr;
  }

  /// Bytes fed but not yet consumed by next().
  std::size_t buffered_bytes() const { return buffer_.size() - head_; }
  /// Absolute offset of the next byte next() will look at.
  std::uint64_t offset() const { return consumed_; }
  std::uint64_t records() const { return records_; }
  bool finished() const { return done_; }

  /// Copies out / restores the decoder position (checkpoint support).
  State state() const;
  void restore(const State& state);

 private:
  /// Records the sticky failure at `offset` (absolute) and returns it;
  /// `format` is a printf format for at most one int, `detail`.
  Error fail(ErrorCode code, std::uint64_t offset, const char* format,
             int detail = 0);
  /// kEnd once the end marker is consumed, unless bytes follow it.
  Expected<Status> end_of_stream();

  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;           ///< buffer_[head_..] is undecoded
  std::uint64_t consumed_ = 0;     ///< absolute offset of buffer_[head_]
  VirtAddr last_addr_ = 0;
  std::uint64_t records_ = 0;
  bool header_done_ = false;
  bool done_ = false;
  std::optional<TraceFormatError> failed_;  ///< sticky: set once
};

/// Replays a serialised buffer as a ThreadStream: an adapter that throws
/// the decoder's errors as TraceFormatError. End of input at a record
/// boundary replays as kEnd (the end marker is optional here); end of input
/// mid-record is kTruncatedTrace.
class TraceReader final : public ThreadStream {
 public:
  /// Throws TraceFormatError (a std::invalid_argument) on a bad header.
  explicit TraceReader(std::vector<std::uint8_t> bytes);

  /// Throws TraceFormatError on a malformed or truncated record. A batch
  /// stops before a bad record once it holds events, and the next call
  /// throws, so the error surfaces at the same event as when records are
  /// read one by one.
  std::size_t fill(std::span<TraceEvent> out) override;

 private:
  TraceStreamDecoder decoder_;
};

/// Records every stream of `workload` (at `seed`) into per-thread buffers.
std::vector<std::vector<std::uint8_t>> record_workload(const Workload& workload,
                                                       std::uint64_t seed);

/// A Workload backed by recorded buffers: replays identically every run
/// (seed is ignored — the interleaving decisions were already made).
class RecordedWorkload final : public Workload {
 public:
  explicit RecordedWorkload(std::vector<std::vector<std::uint8_t>> buffers,
                            std::string name = "recorded");

  std::string name() const override { return name_; }
  std::string description() const override { return "recorded trace replay"; }
  int num_threads() const override {
    return static_cast<int>(buffers_.size());
  }
  std::unique_ptr<ThreadStream> stream(ThreadId t,
                                       std::uint64_t seed) const override;
  std::uint64_t accesses_of(ThreadId t) const override;

  /// Total serialised bytes across all threads.
  std::size_t bytes() const;

 private:
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::string name_;
};

/// File round-trip helpers (one file per thread: dir/thread_<t>.tlbt).
void save_recording(const std::vector<std::vector<std::uint8_t>>& buffers,
                    const std::filesystem::path& dir);
std::vector<std::vector<std::uint8_t>> load_recording(
    const std::filesystem::path& dir);

/// Non-throwing load: reads and validates every per-thread file, returning
/// a structured error (kIoError on a missing/empty directory, the
/// validate_trace() taxonomy for a corrupt file — message names the file)
/// instead of throwing. load_recording() stays the throwing wrapper.
Expected<std::vector<std::vector<std::uint8_t>>> try_load_recording(
    const std::filesystem::path& dir);

}  // namespace tlbmap
