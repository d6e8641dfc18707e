// Crash-safe suite checkpoints (DESIGN.md Sec. 12).
//
// A checkpoint is a sealed binary envelope:
//
//   offset  size  field
//   0       4     magic "TLBK"
//   4       4     format version (u32 LE, currently 2)
//   8       8     config hash (u64 LE) — suite_config_hash() of the run
//   16      8     payload size (u64 LE)
//   24      4     CRC-32 of the payload (u32 LE, IEEE polynomial)
//   28      ...   payload
//
// All integers are little-endian fixed-width; the payload encodes the
// suite's completed tasks (detection results, mappings, evaluation stats)
// keyed by their stable task indices. Because run_suite preassigns every
// task's seed and result slot, replaying the remaining tasks after a resume
// is bit-identical to the uninterrupted run — the differential tests in
// test_checkpoint.cpp assert exactly that.
//
// Validation is strict and structured: bad magic, truncation, a CRC
// mismatch or an unknown version yield ErrorCode::kCorruptCheckpoint with
// the byte offset of the problem (mirroring the trace reader's
// TraceFormatError); a valid envelope whose config hash differs from the
// running config yields ErrorCode::kCheckpointMismatch. Neither ever
// throws: callers fall back to a fresh run.
//
// Files are written through atomic_write_file, so a crash mid-write leaves
// either the previous checkpoint or none — never a torn one.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.hpp"
#include "core/expected.hpp"
#include "core/pipeline.hpp"

namespace tlbmap {

/// Current checkpoint format version (envelope field at offset 4).
/// Version history: 1 = first suite, detector and mapper formats; 2 = the
/// online-mapper snapshot grew its self-stabilization trail. That snapshot
/// and the detector snapshots have since lost their file codecs (their
/// state is in-memory only); the suite and service payloads are unchanged
/// since version 2, so existing suite.ckpt / service.ckpt files still
/// parse. Whether a parsed snapshot is used is up to its config hash.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Progress snapshot of one run_suite invocation. Task indices are the
/// suite's stable global indices: detect task i covers app i/3 with
/// mechanism i%3 (SM, HM, oracle); eval task i covers app i/(3*reps),
/// repetition (i/3)%reps, policy i%3 (OS, SM, HM). A snapshot with every
/// task filled in is a finished suite: that is what the results cache
/// stores (DESIGN.md Sec. 12).
struct SuiteCheckpoint {
  /// suite_config_hash() of the config that produced this snapshot.
  std::uint64_t config_hash = 0;
  /// Task-count shape of the run (revalidated against the resuming
  /// config's shape — a second guard behind the hash).
  std::uint64_t detect_tasks = 0;
  std::uint64_t eval_tasks = 0;

  /// Completed detect tasks, keyed by global task index.
  std::map<std::uint64_t, DetectionResult> detect_done;
  /// Map phase completed: sm_mappings/hm_mappings hold one mapping per app.
  bool map_done = false;
  std::vector<Mapping> sm_mappings;
  std::vector<Mapping> hm_mappings;
  /// Completed evaluate tasks, keyed by global task index.
  std::map<std::uint64_t, MachineStats> eval_done;
};

/// Wraps `payload` in the TLBK envelope (magic, version, hash, size, CRC).
std::string seal_checkpoint(std::string_view payload,
                            std::uint64_t config_hash);

/// Validates the envelope and returns the payload. kCorruptCheckpoint on
/// truncation / bad magic / version skew / CRC mismatch (message carries
/// the byte offset); kCheckpointMismatch when the envelope is sound but
/// its config hash differs from `expected_hash`.
Expected<std::string> unseal_checkpoint(std::string_view bytes,
                                        std::uint64_t expected_hash);

/// Full checkpoint file bytes (payload sealed in the envelope).
std::string serialize_checkpoint(const SuiteCheckpoint& ckpt);

/// Inverse of serialize_checkpoint, with the same error taxonomy as
/// unseal_checkpoint plus kCorruptCheckpoint for payload-level damage.
Expected<SuiteCheckpoint> parse_checkpoint(std::string_view bytes,
                                           std::uint64_t expected_hash);

/// serialize + atomic_write_file. kIoError on filesystem failure.
Expected<void> save_checkpoint(const std::filesystem::path& path,
                               const SuiteCheckpoint& ckpt);

/// read_file + parse_checkpoint. kIoError when the file cannot be read.
Expected<SuiteCheckpoint> load_checkpoint(const std::filesystem::path& path,
                                          std::uint64_t expected_hash);

// Shared field codecs over core/codec.hpp, reused by the suite payload in
// this file and by the service session snapshots (src/svc/): fixed-width
// little-endian fields, length-prefixed containers, range-checked on read.
void write_stats(BinWriter& w, const MachineStats& s);
MachineStats read_stats(BinReader& r);
void write_matrix(BinWriter& w, const CommMatrix& m);
CommMatrix read_matrix(BinReader& r);
void write_mapping(BinWriter& w, const Mapping& m);
Mapping read_mapping(BinReader& r);

}  // namespace tlbmap
