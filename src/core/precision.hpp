// Engine-wide precision policy: which numerics tier the backend kernels
// run at, and which compact storage format (if any) holds the fast tier's
// read-mostly arrays. Parsed from --precision, carried by ExecOptions.
//
//   strict     — the bitwise-deterministic no-FMA f32 path (default).
//   fast       — FMA kernel tables + f16 compact storage (same as fast:f16).
//                The multislice operation sequence itself is the same on
//                both tiers (see physics/multislice.hpp).
//   fast:f16   — explicit storage pick: f16 (binary16) quantization stays
//                inside the 1e-3 tolerance gate.
//   fast:bf16  — wide-range storage pick (8-bit mantissa, f32 exponent
//                range); gated at a looser documented bound.
//
// Strict-tier guarantees (bitwise identity across backends, schedulers,
// thread counts, transports) are untouched by this knob at its default.
// The fast tier is tolerance-gated: cost trajectories must stay within a
// relative epsilon of strict (see convergence.hpp and the README
// "Precision tiers" section); checkpoints always serialize f32 state, so
// runs restore across tiers freely.
#pragma once

#include <string>
#include <string_view>

#include "backend/kernels.hpp"
#include "tensor/compact.hpp"

namespace ptycho {

struct PrecisionPolicy {
  backend::Precision tier = backend::Precision::kStrict;
  compact::Format storage = compact::Format::kNone;

  [[nodiscard]] bool fast() const { return tier == backend::Precision::kFast; }

  friend bool operator==(const PrecisionPolicy& a, const PrecisionPolicy& b) {
    return a.tier == b.tier && a.storage == b.storage;
  }
};

/// Parse "strict" | "fast" | "fast:bf16" | "fast:f16". Throws on anything
/// else (flag values are user input; fail loudly, not quietly strict).
[[nodiscard]] PrecisionPolicy parse_precision(std::string_view spec);

/// Canonical spelling, re-parseable by parse_precision.
[[nodiscard]] std::string to_string(const PrecisionPolicy& policy);

/// Apply the tier to the process-wide backend dispatch (storage is applied
/// locally by the passes that own compact arrays).
void apply_precision(const PrecisionPolicy& policy);

}  // namespace ptycho
