#include "sass/ir.hpp"

namespace egemm::sass {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kLdg:
      return "LDG.E.128";
    case Op::kStg:
      return "STG.E.128";
    case Op::kSts:
      return "STS.128";
    case Op::kLds:
      return "LDS.128";
    case Op::kHmma:
      return "HMMA.1688.F32";
    case Op::kFfma:
      return "FFMA";
    case Op::kIadd:
      return "IADD3";
    case Op::kMov:
      return "MOV";
    case Op::kBar:
      return "BAR.SYNC";
    case Op::kBra:
      return "BRA";
    case Op::kExit:
      return "EXIT";
  }
  return "?";
}

const char* rounding_name(Rounding rounding) noexcept {
  switch (rounding) {
    case Rounding::kNone:
      return "none";
    case Rounding::kRoundNearest:
      return "rn";
    case Rounding::kTruncate:
      return "rz";
    case Rounding::kHalfDirect:
      return "h16";
  }
  return "?";
}

bool is_store(Op op) noexcept { return op == Op::kSts || op == Op::kStg; }

}  // namespace egemm::sass
