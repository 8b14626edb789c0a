#include "simd/isa.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define EGEMM_SIMD_X86 1
#else
#define EGEMM_SIMD_X86 0
#endif

namespace egemm::simd {

namespace {

#if EGEMM_SIMD_X86
/// XGETBV(0): which register states the OS saves/restores. CPUID alone is
/// not enough -- AVX executes only when the OS enabled the xmm+ymm (and,
/// for AVX-512, the opmask+zmm) state components.
std::uint64_t xcr0() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}
#endif

/// -1 = unresolved; otherwise a valid IsaLevel value. Resolution is
/// idempotent, so the unsynchronized double-resolve race on first use is
/// benign (both writers store the same value).
std::atomic<int> g_active_level{-1};

void record_level(IsaLevel level) noexcept {
  static_cast<void>(level);  // unused when observability is compiled out
  EGEMM_GAUGE_SET("tcsim.isa.level", static_cast<int>(level));
}

IsaLevel clamp_to_supported(IsaLevel requested) noexcept {
  const IsaLevel best = best_supported(query_cpu_features());
  return static_cast<int>(requested) <= static_cast<int>(best) ? requested
                                                               : best;
}

IsaLevel resolve_auto() noexcept {
  // The environment override is part of auto-resolution so that a process
  // launched with EGEMM_FORCE_ISA behaves as if force_isa() had been the
  // first call. Unknown values (and "auto") fall back to probing.
  const char* env = std::getenv("EGEMM_FORCE_ISA");
  if (env != nullptr) {
    const std::optional<IsaLevel> forced = parse_isa_name(env);
    if (forced.has_value()) return clamp_to_supported(*forced);
  }
  return best_supported(query_cpu_features());
}

}  // namespace

CpuFeatures query_cpu_features() noexcept {
  CpuFeatures features;
#if EGEMM_SIMD_X86
  std::uint32_t eax = 0;
  std::uint32_t ebx = 0;
  std::uint32_t ecx = 0;
  std::uint32_t edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return features;
  features.fma = (ecx & bit_FMA) != 0;
  features.f16c = (ecx & bit_F16C) != 0;
  const bool osxsave = (ecx & bit_OSXSAVE) != 0;
  if (osxsave) {
    const std::uint64_t state = xcr0();
    features.os_ymm = (state & 0x6u) == 0x6u;            // SSE + AVX state
    features.os_zmm = (state & 0xe6u) == 0xe6u;          // + opmask/zmm state
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    features.avx2 = (ebx & bit_AVX2) != 0;
    features.avx512f = (ebx & bit_AVX512F) != 0;
  }
#endif
  return features;
}

bool isa_runtime_supported(IsaLevel level,
                           const CpuFeatures& features) noexcept {
  switch (level) {
    case IsaLevel::kScalar:
      return true;
    case IsaLevel::kAvx2:
      return features.avx2 && features.fma && features.f16c &&
             features.os_ymm;
    case IsaLevel::kAvx512:
      return features.avx512f && features.os_zmm;
  }
  return false;
}

IsaLevel best_supported(const CpuFeatures& features) noexcept {
  for (int level = kIsaLevelCount - 1; level > 0; --level) {
    const auto candidate = static_cast<IsaLevel>(level);
    if (isa_runtime_supported(candidate, features) &&
        kernels_for(candidate) != nullptr) {
      return candidate;
    }
  }
  return IsaLevel::kScalar;
}

const char* isa_name(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

std::optional<IsaLevel> parse_isa_name(std::string_view name) noexcept {
  if (name == "scalar") return IsaLevel::kScalar;
  if (name == "avx2") return IsaLevel::kAvx2;
  if (name == "avx512") return IsaLevel::kAvx512;
  return std::nullopt;
}

const char* active_isa_name() noexcept { return isa_name(active_isa()); }

IsaLevel active_isa() noexcept {
  const int cached = g_active_level.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<IsaLevel>(cached);
  const IsaLevel resolved = resolve_auto();
  g_active_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  record_level(resolved);
  return resolved;
}

IsaLevel force_isa(IsaLevel level) noexcept {
  const IsaLevel actual = clamp_to_supported(level);
  g_active_level.store(static_cast<int>(actual), std::memory_order_relaxed);
  record_level(actual);
  return actual;
}

IsaLevel reset_isa() noexcept {
  const IsaLevel resolved = resolve_auto();
  g_active_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  record_level(resolved);
  return resolved;
}

}  // namespace egemm::simd
