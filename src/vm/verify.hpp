// Byte-code verification.
//
// Code segments arrive over the network (rules SHIPO and FETCH), so a
// site must not trust them: before linking, every segment is checked for
// structural integrity — decodable instruction stream, in-range jump
// targets, constant-pool and dependency indices, and well-formed
// method/class tables, and local-slot operands below kMaxLocals. A
// verified segment cannot make the interpreter read out of bounds, nor
// grow a frame's locals through a slot operand past kMaxLocals (locals
// are still checked dynamically; values are checked by the marshaller).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vm/segment.hpp"

namespace dityco::vm {

/// How a segment is entered, which determines its leading table.
enum class SegmentRole {
  kEntry,   // root or fork target: code from offset 0
  kObject,  // starts with [nmethods, (labelidx, nparams, offset)*]
  kClass,   // starts with [nclasses, (nparams, offset)*]
  kAny,     // role unknown (e.g. shipped): accept any consistent reading
};

/// What a frame running a segment's code asks for, from one decode pass.
/// The linker sizes frames from it; it only sets capacity and replaces no
/// dynamic check.
struct FrameShape {
  std::uint32_t locals = 0;  // one past the highest local slot named
  std::uint32_t stack = 0;   // deepest operand stack of any straight run
  // First instruction naming a slot at or above kMaxLocals (SIZE_MAX:
  // none); the verifier rejects the segment for it.
  std::size_t bad_slot_at = SIZE_MAX;
};

/// Decode the instruction stream from `start` to the end of the code, or
/// to the first word that is not an instruction, and measure it. Jump
/// targets are not followed: the stack depth restarts at zero after each
/// unconditional transfer, which matches compiled code (its stack is
/// empty at every jump) and is only a capacity hint for any other.
FrameShape frame_shape(const Segment& seg, std::size_t start);

/// Verify one segment. Returns the list of problems (empty = valid).
/// `ndeps` entries of the dependency table are assumed resolvable; the
/// linker enforces that separately. When the segment is valid and `shape`
/// is set, it receives the frame shape of the reading that was accepted.
std::vector<std::string> verify_segment(const Segment& seg, SegmentRole role,
                                        FrameShape* shape = nullptr);

/// Verify a whole compiled program (root = entry, dependencies classified
/// by how they are referenced).
std::vector<std::string> verify_program(const Program& p);

/// Classify each segment of a compiled program by how it is referenced
/// (kTrObj dependency -> object, kMkBlock dependency -> class, root ->
/// entry; unreferenced -> kAny). Shared by the verifier, the assembler
/// and the peephole optimiser.
std::vector<SegmentRole> classify_roles(const Program& p);

/// Offset of the first instruction in a segment under the given role
/// (skips the object/class table).
std::size_t code_start(const Segment& seg, SegmentRole role);

}  // namespace dityco::vm
