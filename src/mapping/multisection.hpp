// Hierarchical thread mapping by recursive multisection (after
// "Shared-Memory Hierarchical Process Mapping", arXiv:2504.01726).
//
// Instead of the paper's bottom-up Edmonds matching passes — exact but
// O(N^3) per level — the communication graph is split top-down along the
// topology tree: threads are k-way partitioned into socket groups, each
// socket group into L2 groups, and each L2 group is read off onto its
// cores. Every partition is a deterministic greedy seed (heaviest
// communicators first, each landing in the part it talks to most) followed
// by a swap/move local search over an incrementally maintained
// item-to-part affinity table.
//
// Detected matrices are sparse at manycore scale (a handful of partners
// per thread), so the mapper works on per-thread neighbour lists, never on
// an N x N copy. One call reads the matrix's sorted nonzeros once
// (CommMatrix::for_each_nonzero, O(nonzeros + (N/8)^2)) into every
// thread's lists and filters each block's lists from those, then, per
// local-search round, does work proportional to the nonzeros times the
// part capacity: the swap search evaluates only the pairs that can gain
// (one of the two has a partner in the other's part) and falls back to a
// plain ascending scan where a thread's neighbourhood is so dense that
// listing those pairs would cost more. A banded 4096-thread matrix maps in
// ~67 ms (BM_Multisection median, 4-CPU host, RelWithDebInfo); the dense
// reference partitioner in test_hierarchical, which visits every pair over
// an N x N copy, takes ~3.6 s for the same mapping. At N >= 128 it beats
// Edmonds wall-clock while staying within a few percent of its
// mapping_cost; test_hierarchical pins both claims and compares every
// mapping with the reference.
//
// On socket-mesh machines (Topology::socket_mesh_cols > 0) the socket
// groups are additionally placed onto the mesh greedily, heaviest-talking
// groups nearest each other; on fully-connected machines every placement
// is equivalent and the identity placement keeps results deterministic.
//
// Unlike HierarchicalMapper, arities need not be powers of two: the
// partitioner only needs per-part capacities.
#pragma once

#include "detect/comm_matrix.hpp"
#include "mapping/mapping.hpp"
#include "sim/topology.hpp"

namespace tlbmap {

class MultisectionMapper {
 public:
  explicit MultisectionMapper(const Topology& topology)
      : topology_(&topology) {}

  /// Maps comm.size() threads onto distinct cores. Requires
  /// comm.size() <= topology.num_cores(). Deterministic.
  Mapping map(const CommMatrix& comm) const;

 private:
  const Topology* topology_;
};

}  // namespace tlbmap
