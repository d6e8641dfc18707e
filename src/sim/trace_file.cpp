#include "sim/trace_file.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/io.hpp"

namespace tlbmap {

namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'L', 'B', 'T'};
constexpr std::uint8_t kVersion = 1;

// Record headers.
constexpr std::uint8_t kBarrier = 0x00;
constexpr std::uint8_t kEnd = 0x01;
constexpr std::uint8_t kAccess = 0x02;          // bit 1
constexpr std::uint8_t kFlagWrite = 0x04;       // bit 2
constexpr std::uint8_t kFlagHasGap = 0x08;      // bit 3
constexpr std::uint8_t kFlagAddrDelta = 0x10;   // bit 4

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

enum class Varint { kOk, kNeedMore, kOverlong };

/// Reads one LEB128 varint from [p, end), advancing p past the bytes read.
Varint read_varint(const std::uint8_t*& p, const std::uint8_t* end,
                   std::uint64_t* value) {
  std::uint64_t v = 0;
  for (int shift = 0; p < end;) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return Varint::kOk;
    }
    shift += 7;
    if (shift > 63) return Varint::kOverlong;
  }
  return Varint::kNeedMore;
}

/// The error for input that stops where `decoder` waits for more bytes.
TraceFormatError end_of_input(const TraceStreamDecoder& decoder) {
  const char* what = decoder.offset() == 0        ? "TLBT: truncated header"
                     : decoder.buffered_bytes() > 0 ? "TLBT: truncated record"
                                                    : "TLBT: missing end marker";
  return TraceFormatError(ErrorCode::kTruncatedTrace, what,
                          decoder.offset() + decoder.buffered_bytes(),
                          decoder.records());
}

}  // namespace

TraceFormatError::TraceFormatError(ErrorCode code, const std::string& what,
                                   std::size_t byte_offset,
                                   std::uint64_t record_index)
    : std::invalid_argument(what + " at byte " + std::to_string(byte_offset) +
                            ", record " + std::to_string(record_index)),
      code_(code),
      byte_offset_(byte_offset),
      record_index_(record_index) {}

TraceWriter::TraceWriter() {
  bytes_.assign(kMagic, kMagic + 4);
  bytes_.push_back(kVersion);
}

void TraceWriter::put_varint(std::uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(value));
}

void TraceWriter::write(const TraceEvent& event) {
  if (finished_) {
    throw std::logic_error("TraceWriter::write after finish");
  }
  switch (event.kind) {
    case TraceEvent::Kind::kBarrier:
      bytes_.push_back(kBarrier);
      break;
    case TraceEvent::Kind::kEnd:
      finish();
      return;
    case TraceEvent::Kind::kAccess: {
      std::uint8_t header = kAccess;
      if (event.access.type == AccessType::kWrite) header |= kFlagWrite;
      if (event.access.compute_gap != 0) header |= kFlagHasGap;
      const std::int64_t delta =
          static_cast<std::int64_t>(event.access.addr) -
          static_cast<std::int64_t>(last_addr_);
      // Delta encoding wins for sequential walks; fall back to absolute
      // when the zigzagged delta would be larger than the address.
      const std::uint64_t zz = zigzag_encode(delta);
      const bool use_delta = zz < event.access.addr;
      if (use_delta) header |= kFlagAddrDelta;
      bytes_.push_back(header);
      put_varint(use_delta ? zz : event.access.addr);
      if (event.access.compute_gap != 0) put_varint(event.access.compute_gap);
      last_addr_ = event.access.addr;
      break;
    }
  }
  ++events_;
}

std::vector<std::uint8_t> TraceWriter::finish() {
  if (!finished_) {
    bytes_.push_back(kEnd);
    finished_ = true;
  }
  return bytes_;
}

void TraceStreamDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  // Compact once the decoded prefix dominates the buffer, so a long-lived
  // session holds only the undecoded tail (the service's memory accounting
  // charges buffered_bytes(), which this keeps honest).
  if (head_ > 4096 && head_ > buffer_.size() - head_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

[[gnu::noinline]] Error TraceStreamDecoder::fail(ErrorCode code,
                                                 std::uint64_t offset,
                                                 const char* format,
                                                 int detail) {
  char what[64];
  std::snprintf(what, sizeof what, format, detail);
  failed_.emplace(code, std::string("TLBT: ") + what, offset, records_);
  return failed_->to_error();
}

Expected<bool> TraceStreamDecoder::read_header() {
  if (failed_) return failed_->to_error();
  if (header_done_) return true;
  if (buffered_bytes() < 5) return false;
  const std::uint8_t* header = buffer_.data() + head_;
  if (!std::equal(kMagic, kMagic + 4, header)) {
    return fail(ErrorCode::kMalformedTrace, consumed_,
                "bad header (magic mismatch)");
  }
  if (header[4] != kVersion) {
    return fail(ErrorCode::kMalformedTrace, consumed_ + 4,
                "bad header (unsupported version %d)", header[4]);
  }
  head_ += 5;
  consumed_ += 5;
  header_done_ = true;
  return true;
}

Expected<TraceStreamDecoder::Status> TraceStreamDecoder::end_of_stream() {
  if (buffered_bytes() == 0) return Status::kEnd;
  return fail(ErrorCode::kMalformedTrace, consumed_,
              "trailing bytes after end marker");
}

Expected<TraceStreamDecoder::Status> TraceStreamDecoder::next(
    TraceEvent* out) {
  if (!header_done_) [[unlikely]] {
    const Expected<bool> header = read_header();
    if (!header) return header.error();
    if (!*header) return Status::kNeedMore;
  }
  if (failed_) [[unlikely]] return failed_->to_error();
  if (done_) [[unlikely]] return end_of_stream();
  // Decode against a local cursor; nothing is consumed until the whole
  // record fits, so a fragment boundary inside a record is invisible.
  const std::uint8_t* const begin = buffer_.data() + head_;
  const std::uint8_t* const end = buffer_.data() + buffer_.size();
  if (begin == end) return Status::kNeedMore;
  const std::uint8_t* p = begin;
  const std::uint8_t header = *p++;
  TraceEvent event;
  if (header == kBarrier) {
    event = TraceEvent::make_barrier();
  } else if (header == kEnd) {
    event = TraceEvent::make_end();
    done_ = true;
  } else if ((header & kAccess) == 0) [[unlikely]] {
    return fail(ErrorCode::kMalformedTrace, consumed_,
                "bad record header 0x%x", header);
  } else {
    std::uint64_t raw = 0;
    std::uint64_t gap = 0;
    const std::uint8_t* field = p;  // first byte of the varint being read
    Varint read = read_varint(p, end, &raw);
    if (read == Varint::kOk && (header & kFlagHasGap) != 0) {
      field = p;
      read = read_varint(p, end, &gap);
    }
    if (read == Varint::kNeedMore) return Status::kNeedMore;
    const std::uint64_t field_offset =
        consumed_ + static_cast<std::uint64_t>(field - begin);
    if (read == Varint::kOverlong) [[unlikely]] {
      return fail(ErrorCode::kMalformedTrace, field_offset, "overlong varint");
    }
    // The writer emits at most 32 bits, so a wider gap is stream damage.
    // Truncating it silently would replay a corrupt trace as a subtly
    // different workload.
    if (gap > 0xffffffffull) [[unlikely]] {
      return fail(ErrorCode::kCorruptTrace, field_offset,
                  "compute gap out of range");
    }
    // Commit only now: last_addr_ advances with the record, never before.
    last_addr_ = (header & kFlagAddrDelta) != 0
                     ? static_cast<VirtAddr>(
                           static_cast<std::int64_t>(last_addr_) +
                           zigzag_decode(raw))
                     : raw;
    event = TraceEvent::make_access(
        last_addr_,
        (header & kFlagWrite) != 0 ? AccessType::kWrite : AccessType::kRead,
        static_cast<std::uint32_t>(gap));
  }
  consumed_ += static_cast<std::uint64_t>(p - begin);
  head_ += static_cast<std::size_t>(p - begin);
  ++records_;
  if (out != nullptr) *out = event;
  if (done_) [[unlikely]] return end_of_stream();
  return Status::kEvent;
}

TraceStreamDecoder::State TraceStreamDecoder::state() const {
  State s;
  s.pending.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                   buffer_.end());
  s.consumed = consumed_;
  s.last_addr = last_addr_;
  s.records = records_;
  s.header_done = header_done_;
  s.done = done_;
  return s;
}

void TraceStreamDecoder::restore(const State& state) {
  buffer_ = state.pending;
  head_ = 0;
  consumed_ = state.consumed;
  last_addr_ = state.last_addr;
  records_ = state.records;
  header_done_ = state.header_done;
  done_ = state.done;
  failed_.reset();
}

TraceReader::TraceReader(std::vector<std::uint8_t> bytes)
    : decoder_(std::move(bytes)) {
  const Expected<bool> header = decoder_.read_header();
  if (!header) throw *decoder_.failure();
  if (!*header) throw end_of_input(decoder_);
}

std::size_t TraceReader::fill(std::span<TraceEvent> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    const Expected<TraceStreamDecoder::Status> status =
        decoder_.next(&out[n]);
    if (status.has_value() && *status == TraceStreamDecoder::Status::kEvent) {
      ++n;
      continue;
    }
    if (status.has_value() && (*status == TraceStreamDecoder::Status::kEnd ||
                               decoder_.buffered_bytes() == 0)) {
      out[n++] = TraceEvent::make_end();  // end marker or record boundary
      break;
    }
    // A bad or cut-off record: deliver the events before it now; the
    // decoder's error is sticky, so the next call throws it.
    if (n > 0) break;
    if (!status.has_value()) throw *decoder_.failure();
    throw end_of_input(decoder_);
  }
  return n;
}

Expected<TraceStats> validate_trace(const std::vector<std::uint8_t>& bytes) {
  TraceStreamDecoder decoder;
  decoder.feed(bytes);
  TraceStats stats;
  stats.bytes = bytes.size();
  for (TraceEvent event;;) {
    const Expected<TraceStreamDecoder::Status> status = decoder.next(&event);
    if (!status) return status.error();
    if (*status == TraceStreamDecoder::Status::kNeedMore) {
      return end_of_input(decoder).to_error();
    }
    if (*status == TraceStreamDecoder::Status::kEnd) break;
    ++(event.kind == TraceEvent::Kind::kBarrier ? stats.barriers
                                                : stats.accesses);
  }
  stats.records = decoder.records();
  return stats;
}

std::vector<std::vector<std::uint8_t>> record_workload(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> buffers;
  buffers.reserve(static_cast<std::size_t>(workload.num_threads()));
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    TraceWriter writer;
    const auto stream = workload.stream(t, seed);
    for (;;) {
      const TraceEvent ev = stream->next();
      writer.write(ev);
      if (ev.kind == TraceEvent::Kind::kEnd) break;
    }
    buffers.push_back(writer.finish());
  }
  return buffers;
}

RecordedWorkload::RecordedWorkload(
    std::vector<std::vector<std::uint8_t>> buffers, std::string name)
    : buffers_(std::move(buffers)), name_(std::move(name)) {
  if (buffers_.empty()) {
    throw std::invalid_argument("RecordedWorkload: no threads");
  }
}

std::unique_ptr<ThreadStream> RecordedWorkload::stream(
    ThreadId t, std::uint64_t /*seed*/) const {
  return std::make_unique<TraceReader>(
      buffers_[static_cast<std::size_t>(t)]);
}

std::uint64_t RecordedWorkload::accesses_of(ThreadId t) const {
  TraceReader reader(buffers_[static_cast<std::size_t>(t)]);
  std::uint64_t count = 0;
  for (;;) {
    const TraceEvent ev = reader.next();
    if (ev.kind == TraceEvent::Kind::kEnd) break;
    if (ev.kind == TraceEvent::Kind::kAccess) ++count;
  }
  return count;
}

std::size_t RecordedWorkload::bytes() const {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b.size();
  return total;
}

void save_recording(const std::vector<std::vector<std::uint8_t>>& buffers,
                    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    std::ostringstream name;
    name << "thread_" << t << ".tlbt";
    // atomic_write_file (DESIGN.md Sec. 12): a crash mid-save leaves either
    // a complete per-thread trace or none — never a truncated .tlbt for
    // try_load_recording to reject later.
    const Expected<void> written = atomic_write_file(
        dir / name.str(),
        std::string_view(reinterpret_cast<const char*>(buffers[t].data()),
                         buffers[t].size()));
    if (!written) {
      throw std::runtime_error("save_recording: " + written.error().message);
    }
  }
}

Expected<std::vector<std::vector<std::uint8_t>>> try_load_recording(
    const std::filesystem::path& dir) {
  std::vector<std::vector<std::uint8_t>> buffers;
  for (std::size_t t = 0;; ++t) {
    std::ostringstream name;
    name << "thread_" << t << ".tlbt";
    const std::filesystem::path file = dir / name.str();
    std::error_code ec;
    if (!std::filesystem::exists(file, ec) || ec) break;
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return Error{ErrorCode::kIoError,
                   "load_recording: cannot open " + file.string()};
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    Expected<TraceStats> checked = validate_trace(bytes);
    if (!checked) {
      return Error{checked.error().code,
                   file.string() + ": " + checked.error().message};
    }
    buffers.push_back(std::move(bytes));
  }
  if (buffers.empty()) {
    return Error{ErrorCode::kIoError,
                 "load_recording: no thread files in " + dir.string()};
  }
  return buffers;
}

std::vector<std::vector<std::uint8_t>> load_recording(
    const std::filesystem::path& dir) {
  Expected<std::vector<std::vector<std::uint8_t>>> loaded =
      try_load_recording(dir);
  if (!loaded) throw std::runtime_error(loaded.error().message);
  return std::move(loaded.value());
}

}  // namespace tlbmap
