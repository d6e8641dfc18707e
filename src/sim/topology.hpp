// Machine topology: which cores share an L2, which share a socket.
//
// Mirrors the paper's Figure 3 machine: a tree with sockets at the top,
// L2 groups below them, and cores at the leaves. The hierarchical mapper
// consumes the per-level arities; the coherence model consumes the
// share_l2 / share_socket predicates to price transactions.
#pragma once

#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// Identifies one L2 cache (shared by `cores_per_l2` cores).
using L2Id = int;
/// Identifies one socket.
using SocketId = int;

class Topology {
 public:
  explicit Topology(const MachineConfig& config);

  int num_cores() const { return num_cores_; }
  int num_l2() const { return num_l2_; }
  int num_sockets() const { return num_sockets_; }
  int cores_per_l2() const { return cores_per_l2_; }
  int cores_per_socket() const { return cores_per_socket_; }
  int l2s_per_socket() const { return cores_per_socket_ / cores_per_l2_; }

  L2Id l2_of(CoreId core) const { return core / cores_per_l2_; }
  SocketId socket_of(CoreId core) const { return core / cores_per_socket_; }
  SocketId socket_of_l2(L2Id l2) const {
    return l2 / (cores_per_socket_ / cores_per_l2_);
  }

  bool share_l2(CoreId a, CoreId b) const { return l2_of(a) == l2_of(b); }
  bool share_socket(CoreId a, CoreId b) const {
    return socket_of(a) == socket_of(b);
  }

  /// Cores attached to one L2, in id order.
  std::vector<CoreId> cores_of_l2(L2Id l2) const;

  /// Socket-interconnect hops between two sockets: 0 for the same socket,
  /// 1 for any distinct pair on a fully-connected machine
  /// (socket_mesh_cols == 0), else the Manhattan distance on the row-major
  /// socket mesh. This is the non-binary far dimension of the cost model.
  int socket_hops(SocketId a, SocketId b) const;

  /// Largest socket_hops() over all socket pairs: 0 with one socket, 1 when
  /// fully connected, else between opposite corners of the mesh.
  int max_socket_hops() const;

  /// Hop distance between cores: 0 same core, 1 same L2, 2 same socket,
  /// 2 + socket_hops across sockets — which is the historical 3 on
  /// fully-connected machines and grows with mesh distance otherwise.
  /// The mapping cost metric (mapping_cost) and the mappers consume it.
  int distance(CoreId a, CoreId b) const;

  /// Columns of the socket mesh (0 = fully connected).
  int socket_mesh_cols() const { return socket_mesh_cols_; }

  /// Group arities from the leaves up, for the hierarchical mapper.
  /// Harpertown: {2 cores per L2, 2 L2s per socket, 2 sockets}.
  std::vector<int> level_arities() const;

 private:
  int num_cores_;
  int num_l2_;
  int num_sockets_;
  int cores_per_l2_;
  int cores_per_socket_;
  int socket_mesh_cols_;
};

}  // namespace tlbmap
