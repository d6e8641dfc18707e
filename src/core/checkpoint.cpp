#include "core/checkpoint.hpp"

#include <cstddef>
#include <sstream>

#include "core/codec.hpp"
#include "core/io.hpp"

namespace tlbmap {
namespace {

constexpr char kMagic[4] = {'T', 'L', 'B', 'K'};
constexpr std::size_t kHeaderSize = 28;
/// Sanity ceiling on matrix sizes, mapping lengths and container counts:
/// far above any real suite, low enough that a corrupted length field can
/// never drive a multi-gigabyte allocation before the CRC would have
/// caught it (lengths are checked even though the CRC already passed —
/// defence in depth against a colliding corruption).
constexpr std::uint64_t kMaxThreads = 4096;
constexpr std::uint64_t kMaxCount = 1u << 20;

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

// ---- field encoders (shared by the suite and service session formats;
// declared in checkpoint.hpp) ----

void write_stats(BinWriter& w, const MachineStats& s) {
  w.u64(s.accesses);
  w.u64(s.reads);
  w.u64(s.writes);
  w.u64(s.tlb_hits);
  w.u64(s.tlb_misses);
  w.u64(s.l1_hits);
  w.u64(s.l1_misses);
  w.u64(s.l2_accesses);
  w.u64(s.l2_hits);
  w.u64(s.l2_misses);
  w.u64(s.invalidations);
  w.u64(s.snoop_transactions);
  w.u64(s.writebacks);
  w.u64(s.memory_fetches);
  w.u64(s.memory_fetches_local);
  w.u64(s.memory_fetches_remote);
  w.u64(s.intra_socket_messages);
  w.u64(s.inter_socket_messages);
  w.u64(s.execution_cycles);
  w.u64(s.detection_overhead_cycles);
  w.u64(s.detector_searches);
}

MachineStats read_stats(BinReader& r) {
  MachineStats s;
  s.accesses = r.u64();
  s.reads = r.u64();
  s.writes = r.u64();
  s.tlb_hits = r.u64();
  s.tlb_misses = r.u64();
  s.l1_hits = r.u64();
  s.l1_misses = r.u64();
  s.l2_accesses = r.u64();
  s.l2_hits = r.u64();
  s.l2_misses = r.u64();
  s.invalidations = r.u64();
  s.snoop_transactions = r.u64();
  s.writebacks = r.u64();
  s.memory_fetches = r.u64();
  s.memory_fetches_local = r.u64();
  s.memory_fetches_remote = r.u64();
  s.intra_socket_messages = r.u64();
  s.inter_socket_messages = r.u64();
  s.execution_cycles = r.u64();
  s.detection_overhead_cycles = r.u64();
  s.detector_searches = r.u64();
  return s;
}

void write_matrix(BinWriter& w, const CommMatrix& m) {
  const int n = m.size();
  w.u32(static_cast<std::uint32_t>(n));
  for (ThreadId a = 0; a < n; ++a) {
    for (ThreadId b = a + 1; b < n; ++b) w.u64(m.at(a, b));
  }
}

CommMatrix read_matrix(BinReader& r) {
  const std::uint32_t n = r.u32();
  if (!r.ok()) return CommMatrix(1);
  if (n == 0 || n > kMaxThreads) {
    r.fail("comm matrix size " + std::to_string(n) + " out of range");
    return CommMatrix(1);
  }
  CommMatrix m(static_cast<int>(n));
  for (ThreadId a = 0; a < static_cast<int>(n); ++a) {
    for (ThreadId b = a + 1; b < static_cast<int>(n); ++b) {
      const std::uint64_t v = r.u64();
      if (v != 0) m.add(a, b, v);
    }
  }
  return m;
}

void write_mapping(BinWriter& w, const Mapping& m) {
  w.u64(m.size());
  for (const CoreId core : m) w.u32(static_cast<std::uint32_t>(core));
}

Mapping read_mapping(BinReader& r) {
  const std::uint64_t n = r.u64();
  if (!r.ok()) return {};
  if (n > kMaxThreads) {
    r.fail("mapping length " + std::to_string(n) + " out of range");
    return {};
  }
  Mapping m;
  m.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    m.push_back(static_cast<CoreId>(r.u32()));
  }
  return m;
}

namespace {

void write_detection(BinWriter& w, const DetectionResult& d) {
  w.str(d.mechanism);
  w.u64(d.searches);
  write_stats(w, d.stats);
  write_matrix(w, d.matrix);
}

DetectionResult read_detection(BinReader& r) {
  DetectionResult d;
  d.mechanism = r.str();
  d.searches = r.u64();
  d.stats = read_stats(r);
  d.matrix = read_matrix(r);
  return d;
}

}  // namespace

std::string seal_checkpoint(std::string_view payload,
                            std::uint64_t config_hash) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  append_u32(out, kCheckpointVersion);
  append_u64(out, config_hash);
  append_u64(out, payload.size());
  append_u32(out, crc32(payload));
  out.append(payload);
  return out;
}

Expected<std::string> unseal_checkpoint(std::string_view bytes,
                                        std::uint64_t expected_hash) {
  if (bytes.size() < kHeaderSize) {
    return Error{ErrorCode::kCorruptCheckpoint,
                 "checkpoint truncated at byte " +
                     std::to_string(bytes.size()) + ": header needs " +
                     std::to_string(kHeaderSize) + " bytes"};
  }
  if (bytes.compare(0, sizeof(kMagic),
                    std::string_view(kMagic, sizeof(kMagic))) != 0) {
    return Error{ErrorCode::kCorruptCheckpoint,
                 "bad checkpoint magic at byte 0 (want \"TLBK\")"};
  }
  const std::uint32_t version = load_u32(bytes, 4);
  if (version != kCheckpointVersion) {
    return Error{ErrorCode::kCorruptCheckpoint,
                 "unsupported checkpoint version " + std::to_string(version) +
                     " at byte 4 (this build reads version " +
                     std::to_string(kCheckpointVersion) + ")"};
  }
  const std::uint64_t config_hash = load_u64(bytes, 8);
  const std::uint64_t payload_size = load_u64(bytes, 16);
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != payload_size) {
    return Error{ErrorCode::kCorruptCheckpoint,
                 "payload size field at byte 16 promises " +
                     std::to_string(payload_size) + " bytes, file holds " +
                     std::to_string(payload.size())};
  }
  const std::uint32_t stored_crc = load_u32(bytes, 24);
  const std::uint32_t actual_crc = crc32(payload);
  if (stored_crc != actual_crc) {
    return Error{ErrorCode::kCorruptCheckpoint,
                 "payload CRC mismatch at byte 24: stored " +
                     hex(stored_crc) + ", computed " + hex(actual_crc)};
  }
  // Integrity established; only now compare identity, so a corrupt file is
  // always reported as corrupt rather than as a config mismatch.
  if (config_hash != expected_hash) {
    return Error{ErrorCode::kCheckpointMismatch,
                 "checkpoint was written for config " + hex(config_hash) +
                     ", current config is " + hex(expected_hash)};
  }
  return std::string(payload);
}

std::string serialize_checkpoint(const SuiteCheckpoint& ckpt) {
  BinWriter w;
  w.u64(ckpt.detect_tasks);
  w.u64(ckpt.eval_tasks);
  w.u64(ckpt.detect_done.size());
  for (const auto& [idx, detection] : ckpt.detect_done) {
    w.u64(idx);
    write_detection(w, detection);
  }
  w.boolean(ckpt.map_done);
  w.u64(ckpt.sm_mappings.size());
  for (const Mapping& m : ckpt.sm_mappings) write_mapping(w, m);
  w.u64(ckpt.hm_mappings.size());
  for (const Mapping& m : ckpt.hm_mappings) write_mapping(w, m);
  w.u64(ckpt.eval_done.size());
  for (const auto& [idx, stats] : ckpt.eval_done) {
    w.u64(idx);
    write_stats(w, stats);
  }
  return seal_checkpoint(w.take(), ckpt.config_hash);
}

Expected<SuiteCheckpoint> parse_checkpoint(std::string_view bytes,
                                           std::uint64_t expected_hash) {
  Expected<std::string> payload = unseal_checkpoint(bytes, expected_hash);
  if (!payload) return payload.error();
  BinReader r(*payload);
  SuiteCheckpoint ckpt;
  ckpt.config_hash = expected_hash;
  ckpt.detect_tasks = r.u64();
  ckpt.eval_tasks = r.u64();
  const std::uint64_t detect_count = r.u64();
  if (r.ok() && detect_count > kMaxCount) {
    r.fail("detect-task count " + std::to_string(detect_count) +
           " out of range");
  }
  for (std::uint64_t i = 0; r.ok() && i < detect_count; ++i) {
    const std::uint64_t idx = r.u64();
    ckpt.detect_done.emplace(idx, read_detection(r));
  }
  ckpt.map_done = r.boolean();
  const std::uint64_t sm_count = r.u64();
  if (r.ok() && sm_count > kMaxCount) {
    r.fail("SM mapping count " + std::to_string(sm_count) + " out of range");
  }
  for (std::uint64_t i = 0; r.ok() && i < sm_count; ++i) {
    ckpt.sm_mappings.push_back(read_mapping(r));
  }
  const std::uint64_t hm_count = r.u64();
  if (r.ok() && hm_count > kMaxCount) {
    r.fail("HM mapping count " + std::to_string(hm_count) + " out of range");
  }
  for (std::uint64_t i = 0; r.ok() && i < hm_count; ++i) {
    ckpt.hm_mappings.push_back(read_mapping(r));
  }
  const std::uint64_t eval_count = r.u64();
  if (r.ok() && eval_count > kMaxCount) {
    r.fail("eval-task count " + std::to_string(eval_count) + " out of range");
  }
  for (std::uint64_t i = 0; r.ok() && i < eval_count; ++i) {
    const std::uint64_t idx = r.u64();
    ckpt.eval_done.emplace(idx, read_stats(r));
  }
  if (!r.ok()) return r.error();
  if (!r.at_end()) {
    r.fail(std::to_string(payload->size() - r.pos()) + " trailing bytes");
    return r.error();
  }
  return ckpt;
}

Expected<void> save_checkpoint(const std::filesystem::path& path,
                               const SuiteCheckpoint& ckpt) {
  return atomic_write_file(path, serialize_checkpoint(ckpt));
}

Expected<SuiteCheckpoint> load_checkpoint(const std::filesystem::path& path,
                                          std::uint64_t expected_hash) {
  Expected<std::string> bytes = read_file(path);
  if (!bytes) return bytes.error();
  return parse_checkpoint(*bytes, expected_hash);
}

}  // namespace tlbmap
