// Machine configuration: cache/TLB geometries and latency model.
//
// Defaults reproduce the paper's evaluation platform (Table II / Figure 3):
// two Intel Harpertown-like sockets, four cores each, private 32 KB 4-way L1
// caches, one 6 MB 8-way L2 shared by each pair of cores, MESI across L2s,
// and 64-entry 4-way TLBs per core (UltraSPARC default / Nehalem L1 TLB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/fault.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// Validates `config` and passes it through, so that a constructor's
/// initialiser list can check a config before deriving fields from it
/// (e.g. a set count or an L2 count that divides by a checked field).
template <typename Config>
const Config& validated(const Config& config) {
  config.validate();
  return config;
}

/// Geometry and access latency of one set-associative cache.
struct CacheConfig {
  std::size_t size_bytes = 0;
  std::size_t line_size = 64;
  std::size_t ways = 4;
  Cycles latency = 1;

  std::size_t num_lines() const { return size_bytes / line_size; }
  std::size_t num_sets() const { return num_lines() / ways; }

  void validate() const {
    if (size_bytes == 0 || line_size == 0 || ways == 0) {
      throw std::invalid_argument("CacheConfig: zero-sized field");
    }
    if (size_bytes % line_size != 0 || num_lines() % ways != 0) {
      throw std::invalid_argument("CacheConfig: geometry not divisible");
    }
    if ((line_size & (line_size - 1)) != 0) {
      throw std::invalid_argument("CacheConfig: line size must be a power of two");
    }
  }
};

/// Geometry of one per-core TLB.
struct TlbConfig {
  std::size_t entries = 64;
  std::size_t ways = 4;
  /// Cycles to service a miss: trap + OS refill (software) or page walk
  /// (hardware). Charged to the faulting core.
  Cycles miss_penalty = 30;

  std::size_t num_sets() const { return entries / ways; }

  void validate() const {
    if (entries == 0 || ways == 0 || entries % ways != 0) {
      throw std::invalid_argument("TlbConfig: bad geometry");
    }
  }
};

/// Latencies of coherence actions, split by whether the two caches involved
/// sit on the same socket (intra-chip interconnect) or on different sockets
/// (front-side bus). These are the knobs that make thread placement matter.
struct InterconnectConfig {
  Cycles snoop_intra_socket = 30;  ///< cache-to-cache transfer, same chip
  Cycles snoop_inter_socket = 70;  ///< cache-to-cache transfer, cross chip
  Cycles invalidate_intra_socket = 15;
  Cycles invalidate_inter_socket = 35;
  Cycles memory_latency = 150;     ///< L2 miss serviced from DRAM
  /// Extra cycles when the line's home memory node is a different socket
  /// (only charged on NUMA machines; the paper's Harpertown is UMA).
  Cycles memory_remote_extra = 150;
  /// Per-hop surcharge on cross-socket messages beyond the first hop, for
  /// machines whose sockets form a mesh (MachineConfig::socket_mesh_cols):
  /// a message crossing h socket hops costs inter + (h-1)*hop_extra. Both
  /// default to 0, so fully-connected machines — and mesh machines with
  /// flat link costs — price exactly as before ("Mapping Matters",
  /// arXiv:2005.10413, motivates the non-binary cross-socket model).
  Cycles snoop_hop_extra = 0;
  Cycles invalidate_hop_extra = 0;
};

/// Page placement policy of a NUMA machine's OS.
enum class NumaPolicy : std::uint8_t {
  kFirstTouch,  ///< page homed on the socket of the first core touching it
  kInterleave,  ///< pages striped round-robin across sockets
};

/// Full machine description.
struct MachineConfig {
  int num_sockets = 2;
  int cores_per_socket = 4;
  int cores_per_l2 = 2;

  /// Socket-level interconnect shape. 0 (default) = fully connected: every
  /// pair of sockets is one hop, reproducing the historical binary
  /// intra/inter distance. > 0 = the sockets form a 2D mesh with this many
  /// columns (row-major socket ids); cross-socket distance becomes the
  /// Manhattan hop count, giving the >=3-level cost model its non-binary
  /// far dimension at manycore scale.
  int socket_mesh_cols = 0;

  std::size_t page_size = 4096;

  /// Non-uniform memory: each socket owns a memory node; L2 misses to
  /// remote-homed pages pay memory_remote_extra. The paper's evaluation
  /// machine is UMA (front-side bus); its conclusions predict larger
  /// mapping gains on NUMA — bench_numa tests that claim.
  bool numa = false;
  NumaPolicy numa_policy = NumaPolicy::kFirstTouch;

  CacheConfig l1{/*size_bytes=*/32 * 1024, /*line_size=*/64, /*ways=*/4,
                 /*latency=*/2};
  CacheConfig l2{/*size_bytes=*/6 * 1024 * 1024, /*line_size=*/64, /*ways=*/8,
                 /*latency=*/8};
  TlbConfig tlb{};
  InterconnectConfig interconnect{};

  /// Seeded fault-injection plan (DESIGN.md Sec. 11). Disabled by default;
  /// the detectors and the pipeline consult it through Machine::config().
  /// With the default (disabled) plan no injector is even constructed, so
  /// the simulated results are bit-identical to a faultless build.
  FaultPlan fault{};

  /// Watchdog for Machine::run: abort the run with a structured
  /// kWatchdogTimeout error once this many trace events have been issued.
  /// 0 disables the watchdog (the default — a finite trace always ends).
  /// Guards against malformed/looping recorded traces and misbehaving
  /// workload generators in long suite runs.
  std::uint64_t watchdog_max_events = 0;

  /// The L2 count stays below this: the coherence directory keeps L2 ids
  /// and holder counts in 16-bit lanes and reserves 0xFFFE and 0xFFFF.
  static constexpr int kMaxL2s = 0xFFFE;

  int num_cores() const { return num_sockets * cores_per_socket; }
  int num_l2() const { return num_cores() / cores_per_l2; }
  int page_shift() const {
    int s = 0;
    for (std::size_t v = page_size; v > 1; v >>= 1) ++s;
    return s;
  }

  void validate() const {
    if (num_sockets <= 0 || cores_per_socket <= 0 || cores_per_l2 <= 0) {
      throw std::invalid_argument("MachineConfig: non-positive topology field");
    }
    if (cores_per_socket % cores_per_l2 != 0) {
      throw std::invalid_argument("MachineConfig: cores_per_socket % cores_per_l2 != 0");
    }
    // In 64 bits, so no product of two valid ints overflows.
    const std::int64_t cores =
        std::int64_t{num_sockets} * std::int64_t{cores_per_socket};
    if (cores > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("MachineConfig: core count overflows int");
    }
    if (cores / cores_per_l2 >= kMaxL2s) {
      throw std::invalid_argument(
          "MachineConfig: num_l2 must stay below 65534 (0xFFFE)");
    }
    if (socket_mesh_cols < 0) {
      throw std::invalid_argument("MachineConfig: negative socket_mesh_cols");
    }
    if (socket_mesh_cols > 0 && num_sockets % socket_mesh_cols != 0) {
      throw std::invalid_argument(
          "MachineConfig: num_sockets % socket_mesh_cols != 0");
    }
    if (page_size == 0 || (page_size & (page_size - 1)) != 0) {
      throw std::invalid_argument("MachineConfig: page size must be a power of two");
    }
    l1.validate();
    l2.validate();
    // The hierarchy derives one line address per access and hands it to
    // both levels, so the levels must agree on what a line is.
    if (l1.line_size != l2.line_size) {
      throw std::invalid_argument("MachineConfig: l1 and l2 line sizes differ");
    }
    tlb.validate();
    fault.validate();
  }

  /// The paper's evaluation machine (2x Harpertown, Table II).
  static MachineConfig harpertown() { return MachineConfig{}; }

  /// The same topology with a NUMA memory system (one node per socket,
  /// first-touch homing) and a point-to-point inter-socket interconnect:
  /// cross-socket transfers pay an extra hop, so the communication-latency
  /// spread between nearby and distant cores is larger than on the UMA
  /// front-side-bus machine — the paper's Sec. VII argument for why mapping
  /// gains grow on NUMA.
  static MachineConfig numa_harpertown() {
    MachineConfig c;
    c.numa = true;
    c.interconnect.snoop_inter_socket = 140;
    c.interconnect.invalidate_inter_socket = 70;
    return c;
  }

  /// A 256-core manycore machine: 32 sockets on an 8-column mesh, 8 cores
  /// per socket, one core (and one L2) per pair-free tile, with non-flat
  /// per-hop link costs and caches kept small so the >64-L2 directory,
  /// eviction paths and hierarchical-mapping scale tests stay fast.
  static MachineConfig manycore() {
    MachineConfig c;
    c.num_sockets = 32;
    c.cores_per_socket = 8;
    c.cores_per_l2 = 1;
    c.socket_mesh_cols = 8;
    c.numa = true;
    c.interconnect.snoop_inter_socket = 140;
    c.interconnect.invalidate_inter_socket = 70;
    c.interconnect.snoop_hop_extra = 20;
    c.interconnect.invalidate_hop_extra = 10;
    c.l1 = CacheConfig{2048, 64, 2, 2};
    c.l2 = CacheConfig{8192, 64, 4, 8};
    c.tlb = TlbConfig{16, 2, 30};
    return c;
  }

  /// A small machine for fast unit tests: 1 socket, 2 cores sharing one L2,
  /// tiny caches so eviction paths are exercised cheaply.
  static MachineConfig tiny() {
    MachineConfig c;
    c.num_sockets = 1;
    c.cores_per_socket = 2;
    c.cores_per_l2 = 2;
    c.l1 = CacheConfig{1024, 64, 2, 2};
    c.l2 = CacheConfig{4096, 64, 4, 8};
    c.tlb = TlbConfig{8, 2, 30};
    return c;
  }
};

}  // namespace tlbmap
