// Unit tests for the machine topology helpers.
#include <gtest/gtest.h>

#include "sim/topology.hpp"

namespace tlbmap {
namespace {

Topology harpertown() { return Topology(MachineConfig::harpertown()); }

TEST(Topology, HarpertownCounts) {
  const Topology t = harpertown();
  EXPECT_EQ(t.num_cores(), 8);
  EXPECT_EQ(t.num_l2(), 4);
  EXPECT_EQ(t.num_sockets(), 2);
  EXPECT_EQ(t.cores_per_l2(), 2);
  EXPECT_EQ(t.cores_per_socket(), 4);
}

TEST(Topology, L2Assignment) {
  const Topology t = harpertown();
  EXPECT_EQ(t.l2_of(0), 0);
  EXPECT_EQ(t.l2_of(1), 0);
  EXPECT_EQ(t.l2_of(2), 1);
  EXPECT_EQ(t.l2_of(7), 3);
}

TEST(Topology, SocketAssignment) {
  const Topology t = harpertown();
  EXPECT_EQ(t.socket_of(0), 0);
  EXPECT_EQ(t.socket_of(3), 0);
  EXPECT_EQ(t.socket_of(4), 1);
  EXPECT_EQ(t.socket_of(7), 1);
  EXPECT_EQ(t.socket_of_l2(0), 0);
  EXPECT_EQ(t.socket_of_l2(1), 0);
  EXPECT_EQ(t.socket_of_l2(2), 1);
  EXPECT_EQ(t.socket_of_l2(3), 1);
}

TEST(Topology, SharingPredicates) {
  const Topology t = harpertown();
  EXPECT_TRUE(t.share_l2(0, 1));
  EXPECT_FALSE(t.share_l2(1, 2));
  EXPECT_TRUE(t.share_socket(1, 2));
  EXPECT_FALSE(t.share_socket(3, 4));
}

TEST(Topology, Distance) {
  const Topology t = harpertown();
  EXPECT_EQ(t.distance(5, 5), 0);
  EXPECT_EQ(t.distance(0, 1), 1);  // same L2
  EXPECT_EQ(t.distance(0, 2), 2);  // same socket, different L2
  EXPECT_EQ(t.distance(0, 4), 3);  // cross socket
  EXPECT_EQ(t.distance(4, 0), 3);  // symmetric
}

TEST(Topology, CoresOfL2) {
  const Topology t = harpertown();
  EXPECT_EQ(t.cores_of_l2(0), (std::vector<CoreId>{0, 1}));
  EXPECT_EQ(t.cores_of_l2(3), (std::vector<CoreId>{6, 7}));
}

TEST(Topology, LevelArities) {
  EXPECT_EQ(harpertown().level_arities(), (std::vector<int>{2, 2, 2}));
}

TEST(Topology, SingleSocketArities) {
  MachineConfig c = MachineConfig::tiny();  // 1 socket, 2 cores, 1 L2
  EXPECT_EQ(Topology(c).level_arities(), (std::vector<int>{2}));
}

TEST(Topology, QuadCoreL2Arities) {
  MachineConfig c;
  c.num_sockets = 2;
  c.cores_per_socket = 8;
  c.cores_per_l2 = 4;
  EXPECT_EQ(Topology(c).level_arities(), (std::vector<int>{4, 2, 2}));
}

TEST(Topology, RejectsInvalidConfig) {
  MachineConfig c;
  c.cores_per_socket = 3;
  c.cores_per_l2 = 2;  // 3 % 2 != 0
  EXPECT_THROW(Topology{c}, std::invalid_argument);
  MachineConfig zero;
  zero.cores_per_l2 = 0;  // num_l2() would divide by zero
  EXPECT_THROW(Topology{zero}, std::invalid_argument);
}

// ---------------------------------------------------------- socket mesh

TEST(TopologyMesh, FullyConnectedSocketsAreOneHop) {
  const Topology t = harpertown();
  EXPECT_EQ(t.socket_mesh_cols(), 0);
  EXPECT_EQ(t.socket_hops(0, 0), 0);
  EXPECT_EQ(t.socket_hops(0, 1), 1);
  EXPECT_EQ(t.socket_hops(1, 0), 1);
  EXPECT_EQ(t.max_socket_hops(), 1);
  EXPECT_EQ(Topology(MachineConfig::tiny()).max_socket_hops(), 0);
}

TEST(TopologyMesh, ManhattanHopsOnTheGrid) {
  // 8 sockets in a 4-column mesh: socket s sits at (s / 4, s % 4).
  MachineConfig c;
  c.num_sockets = 8;
  c.cores_per_socket = 2;
  c.cores_per_l2 = 1;
  c.socket_mesh_cols = 4;
  const Topology t(c);
  EXPECT_EQ(t.socket_mesh_cols(), 4);
  EXPECT_EQ(t.socket_hops(0, 0), 0);
  EXPECT_EQ(t.socket_hops(0, 1), 1);  // same row, adjacent columns
  EXPECT_EQ(t.socket_hops(0, 4), 1);  // same column, adjacent rows
  EXPECT_EQ(t.socket_hops(0, 5), 2);  // diagonal
  EXPECT_EQ(t.socket_hops(0, 7), 4);  // corner to corner: 1 + 3
  EXPECT_EQ(t.socket_hops(7, 0), 4);  // symmetric
  EXPECT_EQ(t.max_socket_hops(), 4);
}

TEST(TopologyMesh, DistanceDeepensWithHops) {
  MachineConfig c;
  c.num_sockets = 8;
  c.cores_per_socket = 2;
  c.cores_per_l2 = 1;
  c.socket_mesh_cols = 4;
  const Topology t(c);
  // Cores 0 (socket 0) and 15 (socket 7): 4 mesh hops -> distance 6; the
  // legacy fully connected machine reports 3 for every cross-socket pair.
  EXPECT_EQ(t.distance(0, 15), 6);
  EXPECT_EQ(t.distance(0, 2), 3);  // adjacent sockets keep the legacy value
  EXPECT_EQ(harpertown().distance(0, 4), 3);
}

TEST(TopologyMesh, RejectsRaggedMeshGeometry) {
  MachineConfig c;
  c.num_sockets = 8;
  c.cores_per_socket = 2;
  c.cores_per_l2 = 1;
  c.socket_mesh_cols = 3;  // 8 % 3 != 0
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.socket_mesh_cols = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.socket_mesh_cols = 4;
  EXPECT_NO_THROW(c.validate());
}

TEST(TopologyMesh, ManycorePresetIsWellFormed) {
  const MachineConfig c = MachineConfig::manycore();
  EXPECT_NO_THROW(c.validate());
  const Topology t(c);
  EXPECT_EQ(t.num_cores(), 256);
  EXPECT_EQ(t.num_l2(), 256);
  EXPECT_EQ(t.num_sockets(), 32);
  EXPECT_EQ(t.socket_mesh_cols(), 8);
  // Sockets 0=(0,0) and 31=(3,7): 3 + 7 = 10 hops.
  EXPECT_EQ(t.socket_hops(0, 31), 10);
  EXPECT_EQ(t.max_socket_hops(), 10);
}

TEST(Topology, TinyMachine) {
  const Topology t{MachineConfig::tiny()};
  EXPECT_EQ(t.num_cores(), 2);
  EXPECT_EQ(t.num_l2(), 1);
  EXPECT_TRUE(t.share_l2(0, 1));
  EXPECT_EQ(t.distance(0, 1), 1);
}

}  // namespace
}  // namespace tlbmap
