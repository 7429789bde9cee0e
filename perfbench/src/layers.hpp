#pragma once
// Traced-run direct calls into single layers (gen codec, core stages,
// stable Algorithm 4, pram executor rounds), each timed and recorded as a
// span by the benchmark's own code.

#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

/// `lanes` is the executor width the workload's engine gives one request.
/// Metrics a workload does not exercise read 0 (see README.md).
Metrics direct_layers(const Workload& w, int lanes, int nproc, Tracer& tracer);

}  // namespace perfbench
