#include "compiler/peephole.hpp"

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "support/arith.hpp"
#include "vm/verify.hpp"

namespace dityco::comp {

using vm::Op;
using vm::Program;
using vm::Segment;
using vm::SegmentRole;

namespace {

struct Instr {
  std::size_t old_off = 0;
  Op op = Op::kHalt;
  std::vector<std::uint32_t> operands;
  bool removed = false;
};

std::optional<std::int64_t> as_int(const Instr& in) {
  if (in.op != Op::kPushInt || in.removed) return std::nullopt;
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(in.operands[0]) |
      (static_cast<std::uint64_t>(in.operands[1]) << 32));
}

std::optional<bool> as_bool(const Instr& in) {
  if (in.op != Op::kPushBool || in.removed) return std::nullopt;
  return in.operands[0] != 0;
}

void set_int(Instr& in, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  in.op = Op::kPushInt;
  in.operands = {static_cast<std::uint32_t>(u & 0xffffffffu),
                 static_cast<std::uint32_t>(u >> 32)};
}

void set_bool(Instr& in, bool v) {
  in.op = Op::kPushBool;
  in.operands = {v ? 1u : 0u};
}

/// Fold two integer constants through an operator, with the
/// interpreter's wrapping arithmetic; div/mod by zero is not folded.
bool fold_int(Op op, std::int64_t a, std::int64_t b, Instr& out) {
  switch (op) {
    case Op::kAdd: set_int(out, wrap::add(a, b)); return true;
    case Op::kSub: set_int(out, wrap::sub(a, b)); return true;
    case Op::kMul: set_int(out, wrap::mul(a, b)); return true;
    case Op::kDiv:
      if (b == 0) return false;
      set_int(out, wrap::div(a, b));
      return true;
    case Op::kMod:
      if (b == 0) return false;
      set_int(out, wrap::mod(a, b));
      return true;
    case Op::kLt: set_bool(out, a < b); return true;
    case Op::kLe: set_bool(out, a <= b); return true;
    case Op::kGt: set_bool(out, a > b); return true;
    case Op::kGe: set_bool(out, a >= b); return true;
    case Op::kEq: set_bool(out, a == b); return true;
    case Op::kNe: set_bool(out, a != b); return true;
    default: return false;
  }
}

class SegOptimizer {
 public:
  SegOptimizer(Segment& seg, SegmentRole role) : seg_(seg), role_(role) {}

  std::size_t run() {
    const std::size_t start = vm::code_start(seg_, role_);
    if (start >= seg_.code.size()) return 0;
    decode(start);
    collect_targets(start);
    bool progress = true;
    while (progress) {
      progress = false;
      progress |= fold_constants();
      progress |= fold_branches();
    }
    drop_jump_to_next();
    return reemit(start);
  }

 private:
  void decode(std::size_t start) {
    for (std::size_t i = start; i < seg_.code.size();) {
      Instr in;
      in.old_off = i;
      in.op = static_cast<Op>(seg_.code[i]);
      const auto arity = static_cast<std::size_t>(vm::op_arity(in.op));
      for (std::size_t k = 0; k < arity; ++k)
        in.operands.push_back(seg_.code[i + 1 + k]);
      i += 1 + arity;
      instrs_.push_back(std::move(in));
    }
  }

  void collect_targets(std::size_t start) {
    for (const auto& in : instrs_) {
      if (in.op == Op::kJmp || in.op == Op::kJmpIfFalse ||
          in.op == Op::kFork)
        targets_.insert(in.operands[0]);
    }
    if (role_ == SegmentRole::kObject) {
      const std::uint32_t n = seg_.code[0];
      for (std::uint32_t k = 0; k < n; ++k)
        targets_.insert(seg_.code[3 + 3 * k]);
    } else if (role_ == SegmentRole::kClass) {
      const std::uint32_t n = seg_.code[0];
      for (std::uint32_t k = 0; k < n; ++k)
        targets_.insert(seg_.code[2 + 2 * k]);
    }
    (void)start;
  }

  bool is_target(const Instr& in) const {
    return targets_.contains(static_cast<std::uint32_t>(in.old_off));
  }

  bool fold_constants() {
    bool progress = false;
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
      Instr& in = instrs_[i];
      if (in.removed || is_target(in)) continue;

      // Unary folds need one constant predecessor.
      if (in.op == Op::kNeg || in.op == Op::kNot) {
        Instr* p = prev(i);
        if (!p || is_target(in)) continue;
        if (in.op == Op::kNeg) {
          if (auto v = as_int(*p)) {
            set_int(*p, wrap::neg(*v));
            in.removed = true;
            progress = true;
          }
        } else if (auto b = as_bool(*p)) {
          set_bool(*p, !*b);
          in.removed = true;
          progress = true;
        }
        continue;
      }

      // Binary folds need two constant predecessors p1; p2; op.
      Instr* p2 = prev(i);
      if (!p2) continue;
      Instr* p1 = prev(index_of(*p2));
      if (!p1) continue;
      if (is_target(*p2)) continue;  // a jump may land between p1 and p2

      if (auto b2 = as_bool(*p2)) {
        if (auto b1 = as_bool(*p1)) {
          bool out, ok = true;
          switch (in.op) {
            case Op::kAndB: out = *b1 && *b2; break;
            case Op::kOrB: out = *b1 || *b2; break;
            case Op::kEq: out = *b1 == *b2; break;
            case Op::kNe: out = *b1 != *b2; break;
            default: ok = false; out = false;
          }
          if (ok) {
            set_bool(*p1, out);
            p2->removed = true;
            in.removed = true;
            progress = true;
          }
        }
        continue;
      }
      auto v2 = as_int(*p2);
      auto v1 = as_int(*p1);
      if (v1 && v2) {
        Instr folded = *p1;
        if (fold_int(in.op, *v1, *v2, folded)) {
          *p1 = folded;
          p2->removed = true;
          in.removed = true;
          progress = true;
        }
      }
    }
    return progress;
  }

  bool fold_branches() {
    bool progress = false;
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
      Instr& in = instrs_[i];
      if (in.removed || in.op != Op::kJmpIfFalse || is_target(in)) continue;
      Instr* p = prev(i);
      if (!p || is_target(*p)) continue;  // a jump may land on the push
      auto b = as_bool(*p);
      if (!b) continue;
      if (*b) {
        p->removed = true;
        in.removed = true;
      } else {
        p->removed = true;
        in.op = Op::kJmp;
      }
      progress = true;
    }
    return progress;
  }

  void drop_jump_to_next() {
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
      Instr& in = instrs_[i];
      if (in.removed || in.op != Op::kJmp) continue;
      // Next surviving instruction's old offset:
      for (std::size_t k = i + 1; k < instrs_.size(); ++k) {
        if (instrs_[k].removed) continue;
        if (in.operands[0] == instrs_[k].old_off) in.removed = true;
        break;
      }
    }
  }

  Instr* prev(std::size_t i) {
    for (std::size_t k = i; k-- > 0;) {
      if (!instrs_[k].removed) return &instrs_[k];
    }
    return nullptr;
  }

  std::size_t index_of(const Instr& in) const {
    return static_cast<std::size_t>(&in - instrs_.data());
  }

  std::size_t reemit(std::size_t start) {
    const std::size_t old_size = seg_.code.size();
    // New offsets: removed instructions forward to the next survivor.
    std::map<std::uint32_t, std::uint32_t> remap;
    std::size_t cursor = start;
    for (const auto& in : instrs_) {
      remap[static_cast<std::uint32_t>(in.old_off)] =
          static_cast<std::uint32_t>(cursor);
      if (!in.removed) cursor += 1 + in.operands.size();
    }
    const auto end_off = static_cast<std::uint32_t>(cursor);
    auto map_target = [&](std::uint32_t t) {
      auto it = remap.find(t);
      return it == remap.end() ? end_off : it->second;
    };

    std::vector<std::uint32_t> code(seg_.code.begin(),
                                    seg_.code.begin() +
                                        static_cast<long>(start));
    for (auto& in : instrs_) {
      if (in.removed) continue;
      if (in.op == Op::kJmp || in.op == Op::kJmpIfFalse ||
          in.op == Op::kFork)
        in.operands[0] = map_target(in.operands[0]);
      code.push_back(static_cast<std::uint32_t>(in.op));
      for (std::uint32_t w : in.operands) code.push_back(w);
    }
    // Remap table offsets.
    if (role_ == SegmentRole::kObject) {
      const std::uint32_t n = code[0];
      for (std::uint32_t k = 0; k < n; ++k)
        code[3 + 3 * k] = map_target(code[3 + 3 * k]);
    } else if (role_ == SegmentRole::kClass) {
      const std::uint32_t n = code[0];
      for (std::uint32_t k = 0; k < n; ++k)
        code[2 + 2 * k] = map_target(code[2 + 2 * k]);
    }
    seg_.code = std::move(code);
    return old_size - seg_.code.size();
  }

  Segment& seg_;
  SegmentRole role_;
  std::vector<Instr> instrs_;
  std::set<std::uint32_t> targets_;
};

}  // namespace

std::size_t peephole(Program& p) {
  const auto roles = vm::classify_roles(p);
  std::size_t removed = 0;
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    SegmentRole role = roles[s];
    if (role == SegmentRole::kAny) role = SegmentRole::kEntry;
    removed += SegOptimizer(p.segments[s], role).run();
  }
  return removed;
}

}  // namespace dityco::comp
