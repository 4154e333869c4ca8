// Code segments: the unit of code mobility.
//
// The paper (section 5) requires byte-code whose "nested structure of the
// source program is preserved", allowing "the efficient dynamic selection
// of byte-code blocks that have to be moved between sites". We realise
// this with *segments*: position-independent code blocks carrying their
// own label table, string/float constant pools and a dependency list of
// other segments (nested objects and definition blocks). Shipping code
// (rules SHIPO and FETCH) serialises a segment's transitive closure;
// the receiving site dynamically links it, deduplicating by GUID.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/bytes.hpp"

namespace dityco::vm {

/// Globally unique code identity: assigned when a compiled program is
/// loaded into a site; preserved verbatim when the segment travels, so a
/// site never links the same code twice.
struct SegmentGuid {
  std::uint32_t node = 0;
  std::uint32_t site = 0;
  std::uint32_t index = 0;

  bool operator==(const SegmentGuid&) const = default;
  auto operator<=>(const SegmentGuid&) const = default;
};

/// Opcodes of the extended TyCO virtual machine. One 32-bit word each,
/// followed by the listed operand words. Jump targets and code offsets
/// are segment-relative (position independence). Constant/label/dep
/// operands index the segment's own tables, mapped to site-global ids at
/// link time.
enum class Op : std::uint32_t {
  kHalt = 0,       // []               end of thread
  kPushInt,        // [lo, hi]         push int64 immediate
  kPushFloat,      // [fidx]           push float constant
  kPushStr,        // [sidx]           push string constant
  kPushBool,       // [0|1]
  kLoad,           // [slot]           push locals[slot]
  kStore,          // [slot]           locals[slot] = pop
  // Builtin expression operators (operate on the frame's operand stack).
  kAdd, kSub, kMul, kDiv, kMod,        // []
  kLt, kLe, kGt, kGe, kEq, kNe,        // []
  kAndB, kOrB, kConcat,                // []
  kNeg, kNot,                          // []
  kJmp,            // [target]
  kJmpIfFalse,     // [target]         pops a bool
  kNewChan,        // [slot]           allocate channel into locals[slot]
  kGlobal,         // [slot, name_sidx] site-wide named channel (free names
                   //                   are implicitly located at the site)
  kTrMsg,          // [labelidx, nargs]  pop target, then nargs args
  kTrObj,          // [depidx, nfree]    pop target, then nfree captures
  kInstOf,         // [nargs]            pop class value, then nargs args
  kFork,           // [target, nfree]    spawn frame at target with captures
  kMkBlock,        // [depidx, nfree, nclasses, firstdst]
  kLoadSibling,    // [classidx]       push sibling class of current block
  kPrint,          // [nargs]
  kExportName,     // [slot, name_sidx]
  kExportClass,    // [slot, name_sidx]
  kImportName,     // [dst, site_sidx, name_sidx]   parks the frame
  kImportClass,    // [dst, site_sidx, name_sidx]   parks the frame
};

/// Local slots one frame may name. The verifier rejects a slot operand at
/// or above it and the code generator refuses a body that needs more, so
/// no slot operand can grow a frame's locals past this (4096 values,
/// 64 KiB).
inline constexpr std::uint32_t kMaxLocals = 4096;

/// Operand-stack depth a preempted frame may carry into its next slice.
/// Verified code can still grow the stack without bound (`pushb 1;
/// jmp 0`), so Machine::run checks the depth whenever it requeues a
/// preempted frame and kills a frame above this with a VM error: a
/// frame's stack never exceeds kMaxStack + one slice of pushes (65536
/// values, 1 MiB, plus the slice).
inline constexpr std::uint32_t kMaxStack = 1u << 16;

/// Number of operand words following each opcode.
int op_arity(Op op);
const char* op_name(Op op);

/// A position-independent code block.
///
/// Object segments start with a method table:
///   [nmethods, (labelidx, nparams, offset)*]
/// Definition-block segments start with a class table:
///   [nclasses, (nparams, offset)*]
/// Plain fork/root segments start directly with code at offset 0.
struct Segment {
  SegmentGuid guid;
  std::vector<std::uint32_t> code;
  std::vector<std::string> labels;   // method labels (seg-local index)
  std::vector<std::string> strings;  // string constants
  std::vector<double> floats;        // float constants
  std::vector<SegmentGuid> deps;     // referenced segments (seg-local index)
  // Debug-only: the source-level definition(s) this segment compiles
  // (e.g. "Serve" for a def block, "{get}" for an object). NOT
  // serialized — shipped code arrives anonymous and the profiler falls
  // back to a slot label; the wire layout stays pinned by test_net.
  std::string name;

  void serialize(Writer& w) const;
  static Segment deserialize(Reader& r);
};

/// A compiled program: the output of the code generator. `root` is the
/// index of the segment whose offset 0 is the program entry point.
/// Segment GUIDs are placeholders until the program is loaded into a site
/// (which re-stamps them with its own identity).
struct Program {
  std::vector<Segment> segments;
  std::uint32_t root = 0;

  /// Total byte-code size (words * 4 + constant pools), the compactness
  /// metric of bench C1.
  std::size_t byte_size() const;
};

}  // namespace dityco::vm
