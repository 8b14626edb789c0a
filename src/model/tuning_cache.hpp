#pragma once
// Shape-class autotuning cache (DESIGN.md §18).
//
// The analytic model (§6) predicts a good tiling from first principles;
// this layer complements it with *measured* winners, cuGemmProf-style:
// an offline sweep (bench_micro --tune) profiles ISA tiers x scheduler
// grains per shape class and persists the winners to a versioned JSON
// tuning file. At plan time GemmPlan consults the cache
// first and falls back to the analytic model when the file is absent,
// stale (schema/version mismatch), or has no entry for the class --
// observable as the gemm.tune.{hit,miss,fallback} counters.
//
// Shape classes bucket each extent to its next power of two (64-1024
// covers the production small-GEMM traffic; everything above 1024 shares
// one class per axis). Buckets keep the file small and make a tuned entry
// apply to the whole neighborhood it was measured in.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gemm/tiling.hpp"

namespace egemm::model {

/// Bump when the entry layout changes incompatibly; readers reject other
/// versions as stale (the fallback counter, never a crash).
inline constexpr int kTuningSchemaVersion = 1;

/// The JSON "schema" tag every tuning file must carry.
inline constexpr const char* kTuningSchemaName = "egemm-tuning";

/// Power-of-two bucketed (m, n, k) equivalence class.
struct TuningShapeClass {
  std::uint32_t m = 0, n = 0, k = 0;

  friend bool operator==(const TuningShapeClass&,
                         const TuningShapeClass&) = default;
};

TuningShapeClass tuning_shape_class(std::size_t m, std::size_t n,
                                    std::size_t k) noexcept;

/// "128x128x128" -- the key format used in the JSON file.
std::string tuning_shape_class_name(const TuningShapeClass& cls);

/// One measured winner for a shape class. `tile` is the §6 tiling the
/// sweep ran under (informational on the host: the simulated-GPU timing
/// depends on it, host wall time does not); `grain` is the 2D scheduler
/// block size in output tiles (0 = pool default); `isa` names the tier the
/// sweep ran under. Fields are looked up by name, so unknown keys (older
/// sweeps also wrote an "engine") are ignored.
struct TuningEntry {
  TuningShapeClass shape;
  gemm::TileConfig tile{};
  std::size_t grain = 0;
  std::string isa;     ///< "scalar" | "avx2" | "avx512"
  double ns_per_call = 0.0;
  double gflops = 0.0;
};

enum class TuningLookup {
  kHit,     ///< file loaded and an entry covers the class
  kMiss,    ///< file loaded but no entry for the class
  kNoFile,  ///< no usable file (absent, unparsable, or stale)
};

/// Process-wide tuning table. Thread-safe; loads at most one file. The
/// first lookup (or an explicit load) consumes EGEMM_TUNING_FILE when the
/// environment names a file.
class TuningCache {
 public:
  /// Parses and installs `path`. Returns false (and clears any previous
  /// table) when the file is missing, malformed, or carries a different
  /// schema/version; `error` then explains why.
  bool load_file(const std::string& path, std::string* error = nullptr);

  /// Installs entries directly (the sweep writer and the tests).
  void set_entries(std::vector<TuningEntry> entries);

  /// Drops the table and forgets the load attempt, so the next lookup
  /// re-consults EGEMM_TUNING_FILE.
  void clear();

  bool loaded() const;
  std::size_t size() const;
  std::string source() const;

  /// Finds the entry for the bucketed (m, n, k). Prefers an entry measured
  /// on the active ISA tier; any-tier entries still hit (a tuned grain
  /// transfers across tiers far better than no entry at all). Bumps the
  /// gemm.tune.{hit,miss,fallback} counter matching the outcome.
  TuningLookup lookup(std::size_t m, std::size_t n, std::size_t k,
                      TuningEntry* out = nullptr) const;

  /// The file-level small-GEMM inline threshold override (satellite knob;
  /// consumed by gemm::small_gemm_inline_threshold), when the loaded file
  /// sets one.
  std::optional<std::size_t> inline_threshold() const;

  static TuningCache& global();

  /// Serializes entries to the versioned tuning-file JSON (sweep writer).
  static std::string to_json(std::span<const TuningEntry> entries,
                             const std::string& generator,
                             std::optional<std::size_t> inline_threshold =
                                 std::nullopt);

 private:
  /// Consumes EGEMM_TUNING_FILE once, lazily, under mutex_.
  void maybe_load_env_locked() const;

  /// load_file body; assumes mutex_ is held (cold path, file IO included).
  bool load_locked(const std::string& path, std::string* error) const;

  mutable std::mutex mutex_;
  mutable bool env_checked_ = false;
  mutable bool loaded_ = false;
  mutable std::string source_;
  mutable std::vector<TuningEntry> entries_;
  mutable std::optional<std::size_t> inline_threshold_;
};

}  // namespace egemm::model
