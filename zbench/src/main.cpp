// zbench: the benchmark binary that zbench/run.py builds and runs.
//
//   zbench --workload <sc_epochs|mc_catchup|gossip_128> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Prints the workload's figures by name, then one JSON result line (the
// last line of standard output). Exit code 0 on a completed run, whether
// or not its checks passed (the result line says); 2 on bad usage or an
// exception.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  zbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value != "0";
    } else {
      std::fprintf(stderr, "zbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    zbench::Result r;
    if (opt.workload == "sc_epochs") {
      r = zbench::run_sc_epochs(opt);
    } else if (opt.workload == "mc_catchup") {
      r = zbench::run_mc_catchup(opt);
    } else if (opt.workload == "gossip_128") {
      r = zbench::run_gossip(opt);
    } else {
      std::fprintf(stderr, "zbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    zbench::print_result(opt, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
