// The generalized emulation-design workflow (Fig. 2) as a walkthrough:
// profile an undocumented specialized-core primitive, certify its
// operation precision, and let that certification pick the emulation
// algorithm -- including what happens when the hardware is NOT what you
// hoped (the broken-core path).
//
//   build/examples/precision_profiling [--trials=5000]
#include <cstdio>

#include "core/emulation.hpp"
#include "core/profiling.hpp"
#include "fp/float_bits.hpp"
#include "tcsim/tensor_core.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace egemm;

namespace {

void describe(const core::ProfilingReport& report) {
  for (const auto& probe : report.probes) {
    std::printf("  probe %-8s worst bitwise match %2d bits, worst "
                "scale-relative %.1f bits%s\n",
                probe.name.c_str(), probe.min_matching_mantissa_bits,
                probe.min_scale_relative_bits,
                probe.bitwise_identical_always ? " (bitwise identical)" : "");
  }
  if (report.licenses_extended_precision()) {
    std::printf("  => operation precision certified at %d mantissa bits: the "
                "lightweight 4-instruction design (Alg. 1) is sound.\n\n",
                report.certified_mantissa_bits);
  } else if (report.certified()) {
    std::printf("  => certified only '%s': fall back to the Dekker-style "
                "half-only emulation (16 instructions).\n\n",
                report.certified_probe.c_str());
  } else {
    std::printf("  => nothing certified: do not emulate on this core.\n\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  core::ProfilingConfig config;
  config.trials =
      static_cast<std::uint64_t>(args.value_or("trials", std::int64_t{5000}));

  std::printf("step 1 -- randomized probing (a sample trial):\n");
  const core::ProfilingSample s = core::sample_trial(2021);
  std::printf("  d_HALF  = %.8f (%s)\n", static_cast<double>(s.half_result),
              fp::f32_hex(s.half_result).c_str());
  std::printf("  d_FLOAT = %.8f (%s)\n", static_cast<double>(s.single_result),
              fp::f32_hex(s.single_result).c_str());
  std::printf("  d_TC    = %.8f (%s)\n\n", static_cast<double>(s.tc_result),
              fp::f32_hex(s.tc_result).c_str());

  std::printf("step 2 -- profile the Tensor Core over %llu trials:\n",
              static_cast<unsigned long long>(config.trials));
  describe(core::profile_tensor_core(config));

  std::printf("step 3 -- the same workflow on a core that secretly "
              "accumulates in binary16:\n");
  describe(core::profile_core(
      [](std::span<const fp::Half> a, std::span<const fp::Half> b, float c) {
        return tcsim::broken_tc_dot(a, b, c);
      },
      config));

  std::printf("step 4 -- the certified design in action on one tile:\n");
  core::FragmentF32 a;
  core::FragmentF32B b;
  tcsim::FragmentAcc c, d;
  util::Xoshiro256 rng(7);
  for (auto& v : a.flat()) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b.flat()) v = rng.uniform(-1.0f, 1.0f);
  c.fill(0.0f);
  core::scheme_mma_tile(core::SchemeId::kRound2, d, a, b, c);
  tcsim::FragmentAcc half_d;
  core::scheme_mma_tile(core::SchemeId::kHalf, half_d, a, b, c);
  double ref = 0.0, emu_err = 0.0, half_err = 0.0;
  for (int k = 0; k < tcsim::kTcK; ++k) {
    ref += static_cast<double>(a.at(0, k)) * static_cast<double>(b.at(k, 0));
  }
  emu_err = std::abs(static_cast<double>(d.at(0, 0)) - ref);
  half_err = std::abs(static_cast<double>(half_d.at(0, 0)) - ref);
  std::printf("  element (0,0): exact %.9f, Alg.1 error %.2e, plain-half "
              "error %.2e\n",
              ref, emu_err, half_err);
  return 0;
}
