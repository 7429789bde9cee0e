#pragma once
// Seeded workloads, reference outputs and the correctness gate.
//
// A workload is a set of *slots* — (mode, instance) pairs — plus the order
// in which requests visit them. Everything is a pure function of the
// workload name and the seed, so one seed always yields the same instances
// and, after encoding, the same request bytes. References are computed once
// per slot by direct calls on a 1-lane executor; the gate compares every
// served output against them outside the timed window.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "engine/engine.hpp"
#include "net/frame.hpp"
#include "stable/instance.hpp"

namespace perfbench {

struct Slot {
  ncpm::engine::Mode mode = ncpm::engine::Mode::kSolve;
  std::size_t instance = 0;  ///< index into instances, or stable_instances for next-stable
};

struct Workload {
  std::string name;
  std::vector<ncpm::core::Instance> instances;
  std::vector<ncpm::stable::StableInstance> stable_instances;
  std::vector<Slot> slots;
  /// Request k visits slots[sequence[k % sequence.size()]].
  std::vector<std::uint32_t> sequence;
};

/// The workload names the benchmark knows.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Canonical bytes of one output: a tag byte, then the mode's payload
/// (matching via io::encode_matching_payload, count as u64, check report,
/// next-stable rotations and successors). "N" is no-solution; anything
/// that is neither ok nor no-solution is a failure and has no canonical
/// form.
std::string canonical(const ncpm::matching::Matching& matching);
std::string canonical(const ncpm::engine::Result& result);
std::optional<std::string> canonical(const ncpm::net::ResponseFrame& frame);

/// 64-bit hash of a byte string (word-at-a-time multiply-mix).
std::uint64_t hash_bytes(const void* data, std::size_t size);
inline std::uint64_t hash_bytes(const std::string& s) { return hash_bytes(s.data(), s.size()); }

struct Reference {
  std::string bytes;  ///< canonical output of the 1-lane direct call
};

/// References for every slot, computed on `threads` threads, each with
/// its own 1-lane executor.
std::vector<Reference> compute_references(const Workload& w, int threads);

/// Builds the engine request of one slot (copies the instance).
ncpm::engine::Request make_request(const Workload& w, std::size_t slot);

/// The gate for one served output. Solve outputs that are ok must satisfy
/// the popular-matching characterization (the ties variant for tied
/// instances) and must agree with the reference on existence; every other
/// mode must equal its reference byte for byte. Returns an empty string
/// when the output passes, else a one-line reason.
std::string check_output(const Workload& w, std::size_t slot, const Reference& ref,
                         const std::string& output);

}  // namespace perfbench
