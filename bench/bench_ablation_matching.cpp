// Ablation: what does the exact Edmonds matching buy?
//
// For every NPB application, derives thread mappings from the SM-detected
// matrix with (a) the hierarchical blossom matcher (the paper's algorithm),
// (b) the greedy matcher, (c) recursive multisection (the repository's
// partitioning mapper, standing in for the Scotch-style bipartitioning the
// paper mentions), and compares them against identity, round-robin and
// random placements. Reports both the static communication-distance
// cost and the simulated execution time.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "mapping/hierarchical.hpp"
#include "mapping/multisection.hpp"

int main(int argc, char** argv) {
  using namespace tlbmap;
  SuiteConfig config;
  config.repetitions = 2;  // matrices only; reuse whatever cache exists
  if (argc > 1 && std::string(argv[1]) == "--fresh") config.use_cache = false;

  const MachineConfig machine = MachineConfig::harpertown();
  const Topology topology(machine);
  Pipeline pipe(machine);

  std::printf("== ablation: mapping algorithm quality\n");
  std::printf("(cost = sum of comm(a,b) * hop distance; time = simulated "
              "seconds, one run each)\n\n");
  TextTable table({"app", "policy", "comm-distance cost", "time (s)",
                   "norm. vs random"});

  const SuiteConfig defaults;
  WorkloadParams detect_params;
  detect_params.iter_scale = defaults.detect_iter_scale;

  for (const std::string& app : config.apps) {
    const auto workload = make_npb_workload(app);
    const auto detect_workload = make_npb_workload(app, detect_params);
    Pipeline detector(machine);
    detector.sm_config() = defaults.sm;
    const auto det = detector.detect(
        *detect_workload, Pipeline::Mechanism::kSoftwareManaged, 1);
    const CommMatrix& m = det.matrix;

    HierarchicalMapper blossom(topology);
    HierarchicalMapper greedy(
        topology,
        HierarchicalMapperConfig{HierarchicalMapperConfig::Matcher::kGreedy});
    MultisectionMapper multisection(topology);

    struct Candidate {
      const char* label;
      Mapping mapping;
    };
    const std::vector<Candidate> candidates = {
        {"blossom (paper)", blossom.map(m)},
        {"greedy matching", greedy.map(m)},
        {"multisection", multisection.map(m)},
        {"identity", identity_mapping(workload->num_threads())},
        {"round-robin", round_robin_mapping(topology,
                                            workload->num_threads())},
        {"random", random_mapping(workload->num_threads(),
                                  machine.num_cores(), 12345)},
    };

    double random_time = 0.0;
    std::vector<double> times;
    for (const Candidate& c : candidates) {
      const MachineStats stats = pipe.evaluate(*workload, c.mapping, 7);
      times.push_back(cycles_to_seconds(stats.execution_cycles));
      if (std::string(c.label) == "random") random_time = times.back();
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      table.add_row({app, candidates[i].label,
                     fmt_count(mapping_cost(m, candidates[i].mapping,
                                            topology)),
                     fmt_double(times[i], 4),
                     fmt_double(random_time == 0.0 ? 1.0
                                                   : times[i] / random_time)});
    }
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
