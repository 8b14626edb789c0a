#pragma once
// SASS-level kernel IR (§5, artifact).
//
// The paper's artifact ships hand-written SASS assembled with TuringAs;
// this module reproduces that layer as a compiler-ish substrate:
//
//   codegen   -- emits the EGEMM-TC block kernel as per-warp SASS IR
//   schedule  -- the §5.1 register-enhanced reordering pass (Fig. 6)
//   regalloc  -- virtual -> physical register assignment with the §5.2
//                stage-reuse heuristic
//   verifier  -- scoreboard/hazard checking of the control codes
//   assembler -- text round-trip in a TuringAs-like syntax
//   lower     -- aggregation into a tcsim::SimProgram for the cycle model
//
// Control codes follow the Turing scheme in simplified form: every
// instruction carries a stall count plus optional write/read dependency
// barriers (0..5) and a wait mask; variable-latency instructions (memory,
// HMMA) signal completion through barriers, fixed-latency ones through
// stall counts.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace egemm::sass {

enum class Op : std::uint8_t {
  kLdg,   ///< LDG.E.128: global -> registers (4 consecutive)
  kStg,   ///< STG.E.128: registers -> global (epilogue C store)
  kSts,   ///< STS.128: registers -> shared
  kLds,   ///< LDS.32 / LDS.128: shared -> registers
  kHmma,  ///< HMMA.1688.F32
  kFfma,  ///< CUDA-core fused multiply-add
  kIadd,  ///< address arithmetic
  kMov,
  kBar,   ///< BAR.SYNC
  kBra,   ///< branch to label (loop back-edge)
  kExit,
};

const char* op_name(Op op) noexcept;

/// Register operand: a run of `width` consecutive 32-bit registers
/// starting at `index`. Until regalloc runs, indexes are virtual (dense,
/// unbounded); afterwards they are physical R0..R255.
struct RegRange {
  std::int32_t index = -1;
  std::int32_t width = 1;

  bool valid() const noexcept { return index >= 0 && width >= 1; }
  bool overlaps(const RegRange& other) const noexcept {
    if (!valid() || !other.valid()) return false;
    return index < other.index + other.width &&
           other.index < index + width;
  }
  friend bool operator==(const RegRange&, const RegRange&) = default;
};

inline constexpr int kNumDepBarriers = 6;

/// Rounding provenance of the numeric payload an instruction touches, for
/// the precision-dataflow pass (EG5xx): how the binary16 plane data the
/// kernel consumes was produced from the binary32 source matrix.
enum class Rounding : std::uint8_t {
  kNone,          ///< untagged / not plane data
  kRoundNearest,  ///< RN16 split plane (EGEMM-TC round-split, Fig. 4b)
  kTruncate,      ///< RZ16 split plane (Markidis truncate-split, Fig. 4a)
  kHalfDirect,    ///< RN16(x) raw binary16 input (no lo plane at all)
};

const char* rounding_name(Rounding rounding) noexcept;

/// Numeric-provenance tag. Codegen stamps every instruction that moves or
/// consumes split-plane data so the precision-dataflow analysis can derive
/// the kernel's operation precision from the instruction stream instead of
/// assuming it:
///
///  * loads/stores (LDG/STS/LDS) carry the plane payload masks -- bit p of
///    `a_planes`/`b_planes` set means "this payload contains plane p of
///    A/B" (plane 0 = hi, 1 = lo, 2 = mid of a 3-way split) -- plus the
///    rounding mode the split pass used to produce those planes;
///  * HMMA carries the split-product term it computes: A plane `term_a`
///    times B plane `term_b`.
///
/// Untagged instructions (`tagged()` false) are opaque to the precision
/// pass; a kernel with no tags at all simply yields no derived profile.
struct NumericTag {
  std::uint8_t a_planes = 0;  ///< payload mask: A planes present
  std::uint8_t b_planes = 0;  ///< payload mask: B planes present
  Rounding rounding = Rounding::kNone;
  std::int8_t term_a = -1;    ///< HMMA: A-side plane of the computed term
  std::int8_t term_b = -1;    ///< HMMA: B-side plane of the computed term

  bool has_planes() const noexcept { return (a_planes | b_planes) != 0; }
  bool has_term() const noexcept { return term_a >= 0 && term_b >= 0; }
  bool tagged() const noexcept { return has_planes() || has_term(); }
  friend bool operator==(const NumericTag&, const NumericTag&) = default;
};

/// Simplified Turing control code.
struct Ctrl {
  std::int32_t stall = 1;            ///< issue-to-issue stall count
  std::int32_t write_barrier = -1;   ///< barrier signaled when result lands
  std::int32_t read_barrier = -1;    ///< barrier signaled when sources read
  std::uint8_t wait_mask = 0;        ///< barriers that must clear pre-issue

  friend bool operator==(const Ctrl&, const Ctrl&) = default;
};

struct Instr {
  Op op = Op::kMov;
  RegRange dst;                    ///< invalid for stores/BAR/BRA/EXIT
  std::vector<RegRange> srcs;
  Ctrl ctrl;
  std::optional<std::string> target;  ///< BRA label
  std::string comment;
  NumericTag num;  ///< precision-dataflow provenance (EG5xx)

  /// Stage tag for the §5.2 allocator (0 context, 1 load-C, 2 main loop,
  /// 3 store-C).
  std::int32_t stage = 2;
  /// k'-step this instruction belongs to inside the main loop (-1 when not
  /// step-local); the scheduling pass keys its hoisting on this.
  std::int32_t step = -1;
};

/// A kernel: straight-line prologue, a loop body executed `loop_trips`
/// times, and an epilogue. Labels are implicit (the loop head).
struct Kernel {
  std::string name;
  std::vector<Instr> prologue;
  std::vector<Instr> body;
  std::vector<Instr> epilogue;
  std::uint32_t loop_trips = 1;
  std::int32_t virtual_regs = 0;  ///< next unused virtual register index

  std::size_t size() const noexcept {
    return prologue.size() + body.size() + epilogue.size();
  }
  /// Dynamic instruction count with the loop expanded.
  std::uint64_t dynamic_size() const noexcept {
    return prologue.size() +
           static_cast<std::uint64_t>(body.size()) * loop_trips +
           epilogue.size();
  }
};

/// True for ops that read memory-ish sources (no dst register).
bool is_store(Op op) noexcept;

}  // namespace egemm::sass
