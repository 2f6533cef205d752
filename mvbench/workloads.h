// The three workloads. Each runs set-up, its crash phase and its checks,
// filling `report` with end-to-end metrics, raw per-layer counts and check
// tallies; main.cc turns the report into the printed result.
#ifndef MVBENCH_WORKLOADS_H_
#define MVBENCH_WORKLOADS_H_

#include "harness.h"

namespace mvbench {

void RunIngest(const Args& args, Report* report);
void RunHistoryReads(const Args& args, Report* report);
void RunShardedMixed(const Args& args, Report* report);

}  // namespace mvbench

#endif  // MVBENCH_WORKLOADS_H_
