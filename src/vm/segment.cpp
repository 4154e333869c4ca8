#include "vm/segment.hpp"

#include <algorithm>

namespace dityco::vm {

int op_arity(Op op) {
  switch (op) {
    case Op::kHalt:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kEq:
    case Op::kNe:
    case Op::kAndB:
    case Op::kOrB:
    case Op::kConcat:
    case Op::kNeg:
    case Op::kNot:
      return 0;
    case Op::kPushFloat:
    case Op::kPushStr:
    case Op::kPushBool:
    case Op::kLoad:
    case Op::kStore:
    case Op::kJmp:
    case Op::kJmpIfFalse:
    case Op::kNewChan:
    case Op::kInstOf:
    case Op::kLoadSibling:
    case Op::kPrint:
      return 1;
    case Op::kPushInt:
    case Op::kGlobal:
    case Op::kTrMsg:
    case Op::kTrObj:
    case Op::kFork:
    case Op::kExportName:
    case Op::kExportClass:
      return 2;
    case Op::kImportName:
    case Op::kImportClass:
      return 3;
    case Op::kMkBlock:
      return 4;
  }
  return 0;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kHalt: return "halt";
    case Op::kPushInt: return "pushi";
    case Op::kPushFloat: return "pushf";
    case Op::kPushStr: return "pushs";
    case Op::kPushBool: return "pushb";
    case Op::kLoad: return "load";
    case Op::kStore: return "store";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kAndB: return "and";
    case Op::kOrB: return "or";
    case Op::kConcat: return "concat";
    case Op::kNeg: return "neg";
    case Op::kNot: return "not";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfFalse: return "jmpf";
    case Op::kNewChan: return "newc";
    case Op::kGlobal: return "global";
    case Op::kTrMsg: return "trmsg";
    case Op::kTrObj: return "trobj";
    case Op::kInstOf: return "instof";
    case Op::kFork: return "fork";
    case Op::kMkBlock: return "mkblock";
    case Op::kLoadSibling: return "loadsib";
    case Op::kPrint: return "print";
    case Op::kExportName: return "exportn";
    case Op::kExportClass: return "exportc";
    case Op::kImportName: return "importn";
    case Op::kImportClass: return "importc";
  }
  return "?";
}

void Segment::serialize(Writer& w) const {
  w.u32(guid.node);
  w.u32(guid.site);
  w.u32(guid.index);
  w.u32(static_cast<std::uint32_t>(code.size()));
  for (std::uint32_t c : code) w.u32(c);
  w.u32(static_cast<std::uint32_t>(labels.size()));
  for (const auto& s : labels) w.str(s);
  w.u32(static_cast<std::uint32_t>(strings.size()));
  for (const auto& s : strings) w.str(s);
  w.u32(static_cast<std::uint32_t>(floats.size()));
  for (double f : floats) w.f64(f);
  w.u32(static_cast<std::uint32_t>(deps.size()));
  for (const auto& d : deps) {
    w.u32(d.node);
    w.u32(d.site);
    w.u32(d.index);
  }
}

Segment Segment::deserialize(Reader& r) {
  Segment s;
  s.guid.node = r.u32();
  s.guid.site = r.u32();
  s.guid.index = r.u32();
  const std::uint32_t ncode = r.u32();
  // The count is untrusted: reserve no more than the bytes left can fill.
  s.code.reserve(std::min<std::size_t>(ncode, r.remaining() / 4));
  for (std::uint32_t i = 0; i < ncode; ++i) s.code.push_back(r.u32());
  const std::uint32_t nlab = r.u32();
  for (std::uint32_t i = 0; i < nlab; ++i) s.labels.push_back(r.str());
  const std::uint32_t nstr = r.u32();
  for (std::uint32_t i = 0; i < nstr; ++i) s.strings.push_back(r.str());
  const std::uint32_t nflt = r.u32();
  for (std::uint32_t i = 0; i < nflt; ++i) s.floats.push_back(r.f64());
  const std::uint32_t ndep = r.u32();
  for (std::uint32_t i = 0; i < ndep; ++i) {
    SegmentGuid g;
    g.node = r.u32();
    g.site = r.u32();
    g.index = r.u32();
    s.deps.push_back(g);
  }
  return s;
}

std::size_t Program::byte_size() const {
  std::size_t n = 0;
  for (const auto& s : segments) {
    n += s.code.size() * sizeof(std::uint32_t);
    for (const auto& l : s.labels) n += l.size() + 4;
    for (const auto& c : s.strings) n += c.size() + 4;
    n += s.floats.size() * sizeof(double);
    n += s.deps.size() * sizeof(SegmentGuid);
  }
  return n;
}

}  // namespace dityco::vm
