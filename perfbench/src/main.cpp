// perfbench_episode — runs ONE episode of one benchmark workload and prints
// its raw measurements as a JSON object on the last line of stdout.
//
//   perfbench_episode --workload <name> --seed <n> [--trace 0|1]
//
// Workloads: paper_bulk, small_msgs, multiflow_faults (the benchmark's),
// paper_reference (the six paper reference transfers), and the known-defect
// reproducers defect_crash_midstream, defect_teardown and defect_health
// (see README.md). run.py
// starts one process per episode, so a crash costs that episode's messages
// and nothing else.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "episode.hpp"
#include "mad/copy_stats.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  // The engine runs one actor at a time, so an episode needs one CPU.
  // Keeping every actor thread on the CPU the process started on keeps
  // handoffs off the cross-core wake-up path, and one malloc arena keeps
  // the peak RSS independent of which threads happened to allocate first;
  // both cut the run-to-run noise of the wall and memory metrics.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof cpus, &cpus);
  mallopt(M_ARENA_MAX, 1);

  perfbench::Episode episode(workload, seed, traced);
  mad::copy_stats().reset();
  if (workload == "paper_bulk") {
    perfbench::run_paper_bulk(episode);
  } else if (workload == "paper_reference") {
    perfbench::run_paper_reference(episode);
  } else if (workload == "small_msgs") {
    perfbench::run_small_msgs(episode);
  } else if (workload == "multiflow_faults") {
    perfbench::run_multiflow_faults(episode);
  } else if (workload == "defect_crash_midstream") {
    perfbench::run_defect_crash_midstream(episode, /*teardown=*/false);
  } else if (workload == "defect_teardown") {
    perfbench::run_defect_crash_midstream(episode, /*teardown=*/true);
  } else if (workload == "defect_health") {
    perfbench::run_defect_health(episode);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  episode.print_json();
  // Skip destructors: a world kept alive by keep_until_exit() must not be
  // torn down, and the OS reclaims everything anyway.
  std::fflush(stdout);
  std::_Exit(0);
}
