#include "mapping/mapping.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>

namespace tlbmap {

bool is_valid_mapping(const Mapping& mapping, int num_cores) {
  std::vector<bool> used(static_cast<std::size_t>(num_cores), false);
  for (const CoreId core : mapping) {
    if (core < 0 || core >= num_cores) return false;
    if (used[static_cast<std::size_t>(core)]) return false;
    used[static_cast<std::size_t>(core)] = true;
  }
  return true;
}

Mapping identity_mapping(int num_threads) {
  Mapping m(static_cast<std::size_t>(num_threads));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

Mapping random_mapping(int num_threads, int num_cores, std::uint64_t seed) {
  std::vector<CoreId> cores(static_cast<std::size_t>(num_cores));
  std::iota(cores.begin(), cores.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(cores.begin(), cores.end(), rng);
  cores.resize(static_cast<std::size_t>(num_threads));
  return cores;
}

Mapping round_robin_mapping(const Topology& topology, int num_threads) {
  Mapping m;
  m.reserve(static_cast<std::size_t>(num_threads));
  std::vector<int> next_in_socket(
      static_cast<std::size_t>(topology.num_sockets()), 0);
  int socket = 0;
  for (int t = 0; t < num_threads; ++t) {
    // Skip full sockets (only matters when threads < cores).
    while (next_in_socket[static_cast<std::size_t>(socket)] >=
           topology.cores_per_socket()) {
      socket = (socket + 1) % topology.num_sockets();
    }
    const int slot = next_in_socket[static_cast<std::size_t>(socket)]++;
    m.push_back(socket * topology.cores_per_socket() + slot);
    socket = (socket + 1) % topology.num_sockets();
  }
  return m;
}

double mapping_cost(const CommMatrix& comm, const Mapping& mapping,
                    const Topology& topology) {
  // Ascending (a, b) over the nonzero cells: a zero cell adds +0.0, so the
  // sum matches the all-pairs sum bit for bit.
  double cost = 0.0;
  comm.for_each_nonzero([&](ThreadId a, ThreadId b, std::uint64_t count) {
    const int dist = topology.distance(mapping[static_cast<std::size_t>(a)],
                                       mapping[static_cast<std::size_t>(b)]);
    cost += static_cast<double>(count) * static_cast<double>(dist);
  });
  return cost;
}

WeightClamp::WeightClamp(int num_threads, int max_hops) {
  const auto n = static_cast<std::uint64_t>(std::max(num_threads, 1));
  const auto hops = static_cast<std::uint64_t>(std::max(max_hops, 1));
  // Nested floor divisions equal floor(max / (2 n^2 hops)) without forming
  // the (possibly overflowing) product.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) /
      2 / n / n / hops;
  ceiling_ = static_cast<std::int64_t>(std::max<std::uint64_t>(limit, 1));
}

std::string to_string(const Mapping& mapping) {
  std::ostringstream out;
  for (std::size_t t = 0; t < mapping.size(); ++t) {
    if (t != 0) out << ' ';
    out << 't' << t << "->c" << mapping[t];
  }
  return out.str();
}

}  // namespace tlbmap
