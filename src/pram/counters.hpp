#pragma once
// NC-depth instrumentation.
//
// Every pram::Workspace owns one NcCounters (workspace.hpp). Each algorithm
// in this library that claims a polylogarithmic depth bound charges it
// through `ws.round(work)`: one `round` per barrier-synchronised parallel
// step of the loop whose iteration count the paper bounds (e.g. the
// while-loop of Algorithm 2, pointer-jumping doublings, connected-components
// hook/shortcut iterations, transitive-closure squarings), and the step's
// element operations in `work`. Tests and benchmarks read `ws.counters()`
// to validate the paper's depth claims independently of wall-clock time.
// Rounds are counted outside the parallel bodies, so the counts never
// depend on the executor width.

#include <cstdint>

namespace ncpm::pram {

struct NcCounters {
  std::uint64_t rounds = 0;  ///< synchronous parallel rounds of the outer NC loop
  std::uint64_t work = 0;    ///< total element operations across all rounds

  void reset() noexcept { rounds = 0; work = 0; }
};

}  // namespace ncpm::pram
