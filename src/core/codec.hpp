// Little-endian binary payload codec shared by every sealed-envelope
// consumer (DESIGN.md Secs. 12 and 16).
//
// Extracted from checkpoint.cpp when the mapping service grew its own
// session-state payloads: the suite checkpoint, the service session codecs
// and the serve driver's feeder cursors all write the same fixed-width
// little-endian fields and want the same sticky-error decode discipline,
// so the writer/reader pair lives here once.
//
// BinReader's error handling is deliberately "sticky": the first failure
// records a structured Error carrying the byte offset where the damage was
// noticed, and every later getter returns a zero value without advancing.
// Decode code therefore reads a whole record linearly and checks ok() once
// at the end instead of threading a status through every field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/expected.hpp"

namespace tlbmap {

void append_u32(std::string& out, std::uint32_t v);
void append_u64(std::string& out, std::uint64_t v);
std::uint32_t load_u32(std::string_view bytes, std::size_t at);
std::uint64_t load_u64(std::string_view bytes, std::size_t at);

/// Little-endian payload writer.
class BinWriter {
 public:
  void u32(std::uint32_t v) { append_u32(out_, v); }
  void u64(std::uint64_t v) { append_u64(out_, v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void boolean(bool v) { out_.push_back(v ? '\1' : '\0'); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Little-endian payload reader with a sticky structured error. `code` and
/// `context` shape the recorded Error: the checkpoint layer reports
/// kCorruptCheckpoint/"checkpoint payload", the service layer
/// kCorruptCheckpoint/"session payload".
class BinReader {
 public:
  explicit BinReader(std::string_view data,
                     ErrorCode code = ErrorCode::kCorruptCheckpoint,
                     std::string context = "checkpoint payload")
      : data_(data), code_(code), context_(std::move(context)) {}

  std::uint32_t u32() {
    if (!need(4, "u32")) return 0;
    const std::uint32_t v = load_u32(data_, pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8, "u64")) return 0;
    const std::uint64_t v = load_u64(data_, pos_);
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  bool boolean() {
    if (!need(1, "bool")) return false;
    const unsigned char c = static_cast<unsigned char>(data_[pos_]);
    if (c > 1) {
      fail("bool field holds " + std::to_string(static_cast<int>(c)));
      return false;
    }
    ++pos_;
    return c == 1;
  }
  std::string str() {
    const std::uint64_t len = u64();
    if (!ok()) return {};
    if (len > data_.size() - pos_) {
      fail("string length " + std::to_string(len) + " exceeds remaining " +
           std::to_string(data_.size() - pos_) + " bytes");
      return {};
    }
    std::string s(data_.substr(pos_, static_cast<std::size_t>(len)));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  bool ok() const { return !err_.has_value(); }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t pos() const { return pos_; }
  const Error& error() const { return *err_; }

  /// Records the first failure; the offset in the message is where the
  /// decode stood when the damage was noticed.
  void fail(const std::string& what) {
    if (!err_) {
      err_ = Error{code_, context_ + ": " + what + " at byte " +
                             std::to_string(pos_)};
    }
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (err_) return false;
    if (data_.size() - pos_ < n) {
      fail(std::string("truncated reading ") + what);
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  ErrorCode code_;
  std::string context_;
  std::optional<Error> err_;
};

}  // namespace tlbmap
