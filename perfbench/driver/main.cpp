// pbdriver — the measuring half of perfbench (run.py orchestrates).
//
//   pbdriver vm      --program P --expect E --seconds S [--tracing 1]
//                    sequential-driver batch runs (workload vm_batch)
//   pbdriver layers  --vm-program P --kernel NAME=P ... --applet P ...
//                    timed calls into compiler, VM and wire functions
//   pbdriver load    --join HOST:PORT --import SITE:NAME ...
//                    open-loop generator for a tycod fleet; phases are
//                    commanded on stdin (see loadgen.cpp)
//
// Every subcommand prints one JSON document on stdout.
#include <cstdio>
#include <cstring>
#include <exception>

#include "driver/common.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbdriver vm|layers|load|info [--key value]...\n");
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "info") == 0) {
    std::printf("{\"build_type\":\"%s\",\"compiler\":\"%s\"}\n", PB_BUILD_TYPE,
                PB_COMPILER);
    return 0;
  }
  // Numbers from any other build type are not comparable with the
  // recorded ones: refuse to measure.
  if (std::strcmp(PB_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "pbdriver: built as %s, refusing (Release only)\n",
                 PB_BUILD_TYPE);
    return 3;
  }
  try {
    const pb::Args args(argc, argv, 2);
    if (std::strcmp(cmd, "vm") == 0) return pb::run_vm(args);
    if (std::strcmp(cmd, "layers") == 0) return pb::run_layers(args);
    if (std::strcmp(cmd, "load") == 0) return pb::run_load(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbdriver %s: %s\n", cmd, e.what());
    return 1;
  }
  std::fprintf(stderr, "pbdriver: unknown command %s\n", cmd);
  return 2;
}
