// Architecture registry: the three GPU platforms of the paper plus the
// reproduction host.
//
// The per-GPU numbers come from paper §IV-A (peaks) and §VI/§VII
// (measured bandwidths, empirical latencies, per-kernel efficiencies as
// reported by Nsight/rocprof/Advisor). On this reproduction host there
// is no GPU, so these specs parameterize the analytic device model
// (device_model.hpp) that regenerates the paper's figures; the host CPU
// entry is calibrated from live measurements instead.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gmg::arch {

/// The five V-cycle computation kernels the paper reports on, plus the
/// communication operation.
enum class Op : int {
  kApplyOp = 0,
  kSmooth,
  kSmoothResidual,
  kRestriction,
  kInterpIncrement,
  kCount
};
inline constexpr int kNumOps = static_cast<int>(Op::kCount);

const char* op_name(Op op);

/// One GPU (or GPU sub-device: GCD / tile) as the paper binds one MPI
/// rank to it, plus the node- and network-level facts needed by the
/// scaling benches.
struct ArchSpec {
  std::string name;        // "NVIDIA A100", ...
  std::string system;      // "Perlmutter", ...
  std::string model;       // programming model: CUDA / HIP / SYCL / exec pool
  bool is_simulated = true;  // false for the live host

  // --- compute device ---
  double peak_fp64_gflops = 0;    // vendor peak
  double hbm_peak_gbs = 0;        // vendor peak memory bandwidth
  double hbm_measured_gbs = 0;    // empirical STREAM-like bandwidth
  double launch_overhead_us = 0;  // kernel launch + sync latency
  int simd_width = 0;             // threads/block used by applyOp (§V)
  index_t brick_dim = 8;          // optimal brick size found in §V
  double l2_cache_mb = 0;
  int cache_line_bytes = 128;

  // --- node / network ---
  int ranks_per_node = 1;         // GPUs (GCDs / tiles) per node
  int nics_per_node = 1;          // Slingshot NICs per node
  double nic_peak_gbs = 25.0;     // Slingshot 11
  double nic_sustained_gbs = 0;   // empirical per-NIC bandwidth (Fig. 6)
  double nic_latency_us = 0;      // empirical message latency (Fig. 6)
  bool gpu_aware_mpi = true;      // §V: off on Sunspot
  double pcie_gbs = 32.0;         // host<->device link (used when
                                  // gpu_aware_mpi is false)

  // --- per-kernel calibration (what the vendor profilers reported;
  //     Table III and Table V of the paper) ---
  std::array<double, kNumOps> frac_roofline{};        // Table III
  std::array<double, kNumOps> frac_theoretical_ai{};  // Table V
};

/// The paper's three platforms.
const ArchSpec& a100();       // Perlmutter, CUDA
const ArchSpec& mi250x_gcd(); // Frontier, HIP
const ArchSpec& pvc_tile();   // Sunspot, SYCL

/// The live reproduction host. Bandwidth and launch overhead are
/// measured once (memoized) with a STREAM-like triad and an empty
/// kernel dispatch; per-kernel efficiencies are filled by the caller
/// from real measurements.
ArchSpec host_cpu();

/// All three paper platforms, in the order the paper tabulates them.
std::vector<const ArchSpec*> paper_platforms();

}  // namespace gmg::arch
