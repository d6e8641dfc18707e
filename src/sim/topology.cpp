#include "sim/topology.hpp"

#include <cstdlib>

namespace tlbmap {

// Validates first: num_l2() divides by cores_per_l2.
Topology::Topology(const MachineConfig& config)
    : num_cores_(validated(config).num_cores()),
      num_l2_(config.num_l2()),
      num_sockets_(config.num_sockets),
      cores_per_l2_(config.cores_per_l2),
      cores_per_socket_(config.cores_per_socket),
      socket_mesh_cols_(config.socket_mesh_cols) {}

int Topology::socket_hops(SocketId a, SocketId b) const {
  if (a == b) return 0;
  if (socket_mesh_cols_ == 0) return 1;
  const int ar = a / socket_mesh_cols_;
  const int ac = a % socket_mesh_cols_;
  const int br = b / socket_mesh_cols_;
  const int bc = b % socket_mesh_cols_;
  return std::abs(ar - br) + std::abs(ac - bc);
}

int Topology::max_socket_hops() const {
  if (num_sockets_ <= 1) return 0;
  if (socket_mesh_cols_ == 0) return 1;
  // validate() rejects ragged meshes: every row is full.
  return (num_sockets_ / socket_mesh_cols_ - 1) + (socket_mesh_cols_ - 1);
}

std::vector<CoreId> Topology::cores_of_l2(L2Id l2) const {
  std::vector<CoreId> cores;
  cores.reserve(static_cast<std::size_t>(cores_per_l2_));
  for (int i = 0; i < cores_per_l2_; ++i) {
    cores.push_back(l2 * cores_per_l2_ + i);
  }
  return cores;
}

int Topology::distance(CoreId a, CoreId b) const {
  if (a == b) return 0;
  if (share_l2(a, b)) return 1;
  if (share_socket(a, b)) return 2;
  return 2 + socket_hops(socket_of(a), socket_of(b));
}

std::vector<int> Topology::level_arities() const {
  std::vector<int> arities;
  arities.push_back(cores_per_l2_);
  if (cores_per_socket_ > cores_per_l2_) {
    arities.push_back(cores_per_socket_ / cores_per_l2_);
  }
  if (num_sockets_ > 1) {
    arities.push_back(num_sockets_);
  }
  return arities;
}

}  // namespace tlbmap
