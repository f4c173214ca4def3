// Shared helpers for the paper-reproduction bench harnesses: live host
// kernel measurements, host-architecture calibration, and output
// conventions (stdout tables plus CSV sidecars for plotting).
#pragma once

#include <iostream>
#include <string>

#include "arch/arch_spec.hpp"
#include "arch/kernel_costs.hpp"
#include "brick/bricked_array.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gmg/operators.hpp"
#include "mesh/array3d.hpp"
#include "perf/movement.hpp"

namespace gmg::bench {

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Best-of-k wall time of one invocation of a V-cycle kernel on the
/// live host, on a cubic subdomain of extent n with bdim^3 bricks.
/// Fields are pre-initialized; ghosts are periodic-filled once.
double measure_host_kernel(arch::Op op, index_t n, index_t bdim,
                           int repetitions = 3);

/// Best-of-k wall times for the fused descent tail (DESIGN.md §16) vs
/// its split stages on the live host: smooth+residual and restriction
/// as two passes, and the fused smooth+residual+restriction as one.
/// Same fields, same interior, interleaved best-of passes.
struct FusedDescentTimes {
  double split_smooth_residual = 0;
  double split_restriction = 0;
  double fused = 0;
  double split_sum() const { return split_smooth_residual + split_restriction; }
};
FusedDescentTimes measure_fused_descent(index_t n, index_t bdim,
                                        int repetitions = 3);

/// Best-of-k wall times for one Jacobi sweep over the interior two
/// ways (DESIGN.md §16): the two-pass applyOp then smooth (or
/// smooth+residual), and the one-pass fused::jacobi_sweep writing x'
/// into a spare buffer (without / with the residual). Interleaved.
struct JacobiSweepTimes {
  double two_pass = 0, one_pass = 0;
  double two_pass_residual = 0, one_pass_residual = 0;
};
JacobiSweepTimes measure_jacobi_sweep(index_t n, index_t bdim,
                                      int repetitions = 3);

/// Per-launch wall times of applyOp and of the one-pass Jacobi sweep
/// over an n^3 interior: `launches` back-to-back launches timed
/// together (the sweep swapping x and x' between launches, as the
/// smoother does), best of `repetitions`. Sized for short launches —
/// a serve-shaped level is one chunk run on the calling thread.
struct LaunchTimes {
  double apply_op = 0, one_pass = 0;
};
LaunchTimes measure_sweep_launches(index_t n, index_t bdim, int launches,
                                   int repetitions);

/// The host ArchSpec with its per-kernel efficiencies filled from live
/// measurements:
///   frac_roofline[op]        = achieved bandwidth / STREAM bandwidth
///   frac_theoretical_ai[op]  = compulsory traffic / simulated traffic
///                              under a host-sized LRU cache
/// (the reproduction's analogue of the paper's profiler-derived
/// Tables III and V columns).
arch::ArchSpec calibrated_host(index_t n = 64);

/// Parse the shared `--trace-out <path>` flag (empty string when not
/// given). Unknown flags are an error, matching the Options policy.
std::string parse_trace_out(int argc, const char* const argv[],
                            const char* program);

/// Same, but on a caller-provided Options so a bench can register its
/// own flags (e.g. amr_refine's -s and -b) next to --trace-out.
std::string parse_trace_out(Options& opts, int argc,
                            const char* const argv[], const char* program);

/// When `path` is non-empty: collect the trace accumulated so far and
/// write the Chrome trace-event JSON to `path` plus the aggregated
/// metrics sidecar to `path` with ".json" replaced by ".metrics.json".
void finish_trace(const std::string& path);

}  // namespace gmg::bench
