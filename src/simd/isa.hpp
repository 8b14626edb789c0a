#pragma once
// Runtime ISA selection for the SIMD microkernel layer (DESIGN.md §15).
//
// The packed EGEMM hot loops (tcsim::mma_block_packed and the split's
// binary16 round trip) ship in several instruction-set variants; this
// header owns the decision of which one runs. The choice is made exactly
// once per process from the CPUID feature flags (plus the OS's XSAVE
// state, which gates whether ymm/zmm registers are actually usable), can
// be overridden by the EGEMM_FORCE_ISA environment variable or
// programmatically (tests and benchmarks force each variant in turn), and
// is recorded once through the observability layer as the
// `tcsim.isa.level` gauge so every BENCH_*.json metrics block states which
// kernel produced its numbers.

#include <optional>
#include <string_view>

namespace egemm::simd {

/// Instruction-set tiers the kernel layer is built for, in strictly
/// increasing capability order. The numeric values are stable: they are
/// what the `tcsim.isa.level` gauge reports.
enum class IsaLevel : int {
  kScalar = 0,  ///< portable C++ (what the seed's auto-vectorizer got)
  kAvx2 = 1,    ///< AVX2 + FMA3 + F16C (256-bit lanes)
  kAvx512 = 2,  ///< AVX-512F (512-bit lanes, one zmm per 16-float tile row)
};

inline constexpr int kIsaLevelCount = 3;

/// Raw capability bits relevant to the kernel tiers. `os_ymm` / `os_zmm`
/// are the XCR0-derived bits: a CPU can expose AVX2 while the OS never
/// enabled the wide register state, in which case executing the kernels
/// would fault.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool f16c = false;  ///< vcvtps2ph/vcvtph2ps on xmm/ymm (the AVX2 split)
  bool avx512f = false;
  bool os_ymm = false;
  bool os_zmm = false;
};

/// Queries CPUID + XGETBV on x86; everything-false elsewhere.
CpuFeatures query_cpu_features() noexcept;

/// Whether `level` can execute on a machine with `features` (compile-time
/// availability of the variant is a separate question -- see
/// `isa_available` in dispatch.hpp).
bool isa_runtime_supported(IsaLevel level, const CpuFeatures& features) noexcept;

/// Highest tier whose kernels both exist in this binary and can execute on
/// `features`.
IsaLevel best_supported(const CpuFeatures& features) noexcept;

/// Stable lowercase name ("scalar", "avx2", "avx512"); used in counter
/// names, benchmark row names and the EGEMM_FORCE_ISA syntax.
const char* isa_name(IsaLevel level) noexcept;

/// Parses an EGEMM_FORCE_ISA value. Accepts the isa_name() strings plus
/// "auto" (meaning: probe), case-sensitively; anything else is nullopt.
/// "auto" is returned as nullopt too -- both mean "no forced level".
std::optional<IsaLevel> parse_isa_name(std::string_view name) noexcept;

/// The level the dispatch tables currently resolve to. First call probes
/// the CPU and honors EGEMM_FORCE_ISA; later calls are one relaxed atomic
/// load. Never returns a level the machine cannot execute.
IsaLevel active_isa() noexcept;

/// isa_name(active_isa()); the tag call-record consumers stamp on
/// per-call telemetry rows.
const char* active_isa_name() noexcept;

/// Programmatic override (the API face of EGEMM_FORCE_ISA). Requests above
/// what the machine supports are clamped; the level actually selected is
/// returned and recorded in the `tcsim.isa.level` gauge. Not intended for
/// concurrent use with in-flight kernels -- tests and benchmarks call it
/// between runs.
IsaLevel force_isa(IsaLevel level) noexcept;

/// Drops any override (programmatic or environment) and re-probes; returns
/// the level auto-selection lands on. Test hook.
IsaLevel reset_isa() noexcept;

}  // namespace egemm::simd
