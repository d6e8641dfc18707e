#include "sim/trace_file.hpp"

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

std::string format_trace_error(const std::string& what,
                               std::size_t byte_offset,
                               std::uint64_t record_index) {
  std::ostringstream msg;
  msg << what << " at byte " << byte_offset << ", record " << record_index;
  return msg.str();
}

}  // namespace

TraceFormatError::TraceFormatError(ErrorCode code, const std::string& what,
                                   std::size_t byte_offset,
                                   std::uint64_t record_index)
    : std::invalid_argument(
          format_trace_error(what, byte_offset, record_index)),
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

TraceReader::TraceReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  if (bytes_.size() < 5) {
    throw TraceFormatError(ErrorCode::kTruncatedTrace,
                           "TraceReader: bad header (buffer too short)",
                           bytes_.size(), 0);
  }
  if (!std::equal(kMagic, kMagic + 4, bytes_.begin())) {
    throw TraceFormatError(ErrorCode::kMalformedTrace,
                           "TraceReader: bad header (magic mismatch)", 0, 0);
  }
  if (bytes_[4] != kVersion) {
    throw TraceFormatError(
        ErrorCode::kMalformedTrace,
        "TraceReader: bad header (unsupported version " +
            std::to_string(static_cast<int>(bytes_[4])) + ")",
        4, 0);
  }
  pos_ = 5;
}

std::uint64_t TraceReader::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos_ < bytes_.size()) {
    const std::uint8_t byte = bytes_[pos_++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) {
      throw TraceFormatError(ErrorCode::kMalformedTrace,
                             "TraceReader: overlong varint", pos_, records_);
    }
  }
  throw TraceFormatError(ErrorCode::kTruncatedTrace,
                         "TraceReader: truncated varint", pos_, records_);
}

std::size_t TraceReader::fill(std::span<TraceEvent> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    const std::size_t pos = pos_;
    const std::uint64_t records = records_;
    const VirtAddr last_addr = last_addr_;
    try {
      out[n] = decode();
    } catch (const TraceFormatError&) {
      // Rewind to the bad record: the events before it are delivered now,
      // and the next call decodes it again and throws.
      pos_ = pos;
      records_ = records;
      last_addr_ = last_addr;
      if (n == 0) throw;
      return n;
    }
    if (out[n++].kind == TraceEvent::Kind::kEnd) break;
  }
  return n;
}

TraceEvent TraceReader::decode() {
  if (done_ || pos_ >= bytes_.size()) return TraceEvent::make_end();
  const std::size_t record_start = pos_;
  const std::uint8_t header = bytes_[pos_++];
  ++records_;
  if (header == kBarrier) return TraceEvent::make_barrier();
  if (header == kEnd) {
    done_ = true;
    return TraceEvent::make_end();
  }
  if ((header & kAccess) == 0) {
    throw TraceFormatError(
        ErrorCode::kMalformedTrace,
        "TraceReader: bad record header 0x" + [&] {
          std::ostringstream hex;
          hex << std::hex << static_cast<int>(header);
          return hex.str();
        }(),
        record_start, records_ - 1);
  }
  const std::uint64_t raw = get_varint();
  VirtAddr addr;
  if ((header & kFlagAddrDelta) != 0) {
    addr = static_cast<VirtAddr>(static_cast<std::int64_t>(last_addr_) +
                                 zigzag_decode(raw));
  } else {
    addr = raw;
  }
  last_addr_ = addr;
  std::uint32_t gap = 0;
  if ((header & kFlagHasGap) != 0) {
    const std::uint64_t raw_gap = get_varint();
    // Oversized gap: the writer emits at most 32 bits, so a wider value is
    // stream damage. Truncating it silently (the pre-hardening behaviour)
    // would replay a corrupt trace as a subtly different workload.
    if (raw_gap > 0xffffffffull) {
      throw TraceFormatError(ErrorCode::kCorruptTrace,
                             "TraceReader: compute gap out of range", pos_,
                             records_ - 1);
    }
    gap = static_cast<std::uint32_t>(raw_gap);
  }
  const AccessType type = (header & kFlagWrite) != 0 ? AccessType::kWrite
                                                     : AccessType::kRead;
  return TraceEvent::make_access(addr, type, gap);
}

Expected<TraceStats> validate_trace(const std::vector<std::uint8_t>& bytes) {
  TraceStats stats;
  stats.bytes = bytes.size();
  std::size_t pos = 0;
  std::uint64_t record = 0;
  auto fail = [&](ErrorCode code, const std::string& what,
                  std::size_t offset) {
    return Error{code, format_trace_error(what, offset, record)};
  };
  if (bytes.size() < 5) {
    return fail(ErrorCode::kTruncatedTrace,
                "validate_trace: bad header (buffer too short)",
                bytes.size());
  }
  if (!std::equal(kMagic, kMagic + 4, bytes.begin())) {
    return fail(ErrorCode::kMalformedTrace,
                "validate_trace: bad header (magic mismatch)", 0);
  }
  if (bytes[4] != kVersion) {
    return fail(ErrorCode::kMalformedTrace,
                "validate_trace: bad header (unsupported version " +
                    std::to_string(static_cast<int>(bytes[4])) + ")",
                4);
  }
  pos = 5;
  // read_varint fills *value and returns an empty optional on success, else
  // the structured failure.
  auto read_varint = [&](std::uint64_t* value) -> std::optional<Error> {
    *value = 0;
    int shift = 0;
    while (pos < bytes.size()) {
      const std::uint8_t byte = bytes[pos++];
      *value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return std::nullopt;
      shift += 7;
      if (shift > 63) {
        return fail(ErrorCode::kMalformedTrace,
                    "validate_trace: overlong varint", pos);
      }
    }
    return fail(ErrorCode::kTruncatedTrace, "validate_trace: truncated varint",
                pos);
  };
  while (pos < bytes.size()) {
    const std::size_t record_start = pos;
    const std::uint8_t header = bytes[pos++];
    if (header == kBarrier) {
      ++stats.barriers;
      ++stats.records;
      ++record;
      continue;
    }
    if (header == kEnd) {
      ++stats.records;
      stats.explicit_end = true;
      if (pos != bytes.size()) {
        return fail(ErrorCode::kMalformedTrace,
                    "validate_trace: trailing bytes after end marker", pos);
      }
      return stats;
    }
    if ((header & kAccess) == 0) {
      std::ostringstream hex;
      hex << std::hex << static_cast<int>(header);
      return fail(ErrorCode::kMalformedTrace,
                  "validate_trace: bad record header 0x" + hex.str(),
                  record_start);
    }
    std::uint64_t value = 0;
    if (auto err = read_varint(&value)) return *err;
    if ((header & kFlagHasGap) != 0) {
      const std::size_t gap_at = pos;
      if (auto err = read_varint(&value)) return *err;
      if (value > 0xffffffffull) {
        return fail(ErrorCode::kCorruptTrace,
                    "validate_trace: compute gap out of range", gap_at);
      }
    }
    ++stats.accesses;
    ++stats.records;
    ++record;
  }
  // EOF without an end marker replays fine (the reader synthesises kEnd),
  // but a validator flags it: a writer always emits 0x01, so its absence
  // means the tail of the file was lost.
  return fail(ErrorCode::kTruncatedTrace,
              "validate_trace: missing end marker (file truncated)", pos);
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

Expected<TraceStreamDecoder::Status> TraceStreamDecoder::next(
    TraceEvent* out) {
  if (failed_) return *failed_;
  if (done_) return Status::kEnd;
  auto fail = [&](ErrorCode code, const std::string& what,
                  std::uint64_t offset) -> Error {
    failed_ = Error{code, format_trace_error(what, offset, records_)};
    return *failed_;
  };
  if (!header_done_) {
    if (buffer_.size() - head_ < 5) return Status::kNeedMore;
    if (!std::equal(kMagic, kMagic + 4,
                    buffer_.begin() + static_cast<std::ptrdiff_t>(head_))) {
      return fail(ErrorCode::kMalformedTrace,
                  "TraceStreamDecoder: bad header (magic mismatch)",
                  consumed_);
    }
    if (buffer_[head_ + 4] != kVersion) {
      return fail(
          ErrorCode::kMalformedTrace,
          "TraceStreamDecoder: bad header (unsupported version " +
              std::to_string(static_cast<int>(buffer_[head_ + 4])) + ")",
          consumed_ + 4);
    }
    head_ += 5;
    consumed_ += 5;
    header_done_ = true;
  }
  // Decode against a local cursor; nothing is consumed until the whole
  // record fits, so a fragment boundary inside a record is invisible.
  std::size_t p = head_;
  if (p >= buffer_.size()) return Status::kNeedMore;
  const std::uint64_t record_offset = consumed_;
  const std::uint8_t header = buffer_[p++];
  enum class Varint { kOk, kNeedMore, kOverlong };
  auto get_varint = [&](std::uint64_t* value) {
    *value = 0;
    int shift = 0;
    while (p < buffer_.size()) {
      const std::uint8_t byte = buffer_[p++];
      *value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return Varint::kOk;
      shift += 7;
      if (shift > 63) return Varint::kOverlong;
    }
    return Varint::kNeedMore;
  };
  auto varint_offset = [&]() {
    return consumed_ + static_cast<std::uint64_t>(p - head_);
  };
  TraceEvent event;
  if (header == kBarrier) {
    event = TraceEvent::make_barrier();
  } else if (header == kEnd) {
    done_ = true;
    head_ = p;
    ++consumed_;
    ++records_;
    if (out != nullptr) *out = TraceEvent::make_end();
    return Status::kEnd;
  } else if ((header & kAccess) == 0) {
    std::ostringstream hex;
    hex << std::hex << static_cast<int>(header);
    return fail(ErrorCode::kMalformedTrace,
                "TraceStreamDecoder: bad record header 0x" + hex.str(),
                record_offset);
  } else {
    std::uint64_t raw = 0;
    switch (get_varint(&raw)) {
      case Varint::kNeedMore: return Status::kNeedMore;
      case Varint::kOverlong:
        return fail(ErrorCode::kMalformedTrace,
                    "TraceStreamDecoder: overlong varint", varint_offset());
      case Varint::kOk: break;
    }
    VirtAddr addr;
    if ((header & kFlagAddrDelta) != 0) {
      addr = static_cast<VirtAddr>(static_cast<std::int64_t>(last_addr_) +
                                   zigzag_decode(raw));
    } else {
      addr = raw;
    }
    std::uint32_t gap = 0;
    if ((header & kFlagHasGap) != 0) {
      std::uint64_t raw_gap = 0;
      switch (get_varint(&raw_gap)) {
        case Varint::kNeedMore: return Status::kNeedMore;
        case Varint::kOverlong:
          return fail(ErrorCode::kMalformedTrace,
                      "TraceStreamDecoder: overlong varint", varint_offset());
        case Varint::kOk: break;
      }
      if (raw_gap > 0xffffffffull) {
        return fail(ErrorCode::kCorruptTrace,
                    "TraceStreamDecoder: compute gap out of range",
                    varint_offset());
      }
      gap = static_cast<std::uint32_t>(raw_gap);
    }
    // Commit only now: last_addr_ advances with the record, never before.
    last_addr_ = addr;
    event = TraceEvent::make_access(
        addr, (header & kFlagWrite) != 0 ? AccessType::kWrite
                                         : AccessType::kRead,
        gap);
  }
  consumed_ += static_cast<std::uint64_t>(p - head_);
  head_ = p;
  ++records_;
  if (out != nullptr) *out = event;
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
