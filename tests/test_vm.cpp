// VM tests: compile-and-run of local programs, interpreter semantics,
// stats, error handling, segment serialisation, and a fake backend for
// the park/resume import machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "calculus/reducer.hpp"
#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "vm/machine.hpp"

// Counting allocator: every operator new in this binary bumps the count,
// so a test can assert that a code path performs no heap allocation.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC flags free() inside a replacement operator delete as a mismatch with
// operator new; here both are the malloc-based replacements above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dityco::vm {
namespace {

using comp::compile_source;

/// Run a single-site program to completion; returns the machine.
Machine run_local(std::string_view src, std::uint64_t budget = 1'000'000) {
  Machine m("main");
  m.spawn_program(compile_source(src));
  m.run(budget);
  return m;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Vm, PrintLiterals) {
  auto m = run_local("print[1, true, \"hi\", 2.5]");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"1 true hi 2.5"});
}

TEST(Vm, PrintContinuation) {
  auto m = run_local("print[1]; print[2]; print[3]");
  EXPECT_EQ(m.output(), (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Vm, Arithmetic) {
  auto m = run_local(
      "print[1 + 2 * 3, 10 % 3, 7 / 2, -4, 2.5 + 1, \"a\" ++ \"b\", "
      "1 < 2, 2 <= 1, true && false, true || false, !true, 3 == 3, 3 != 3]");
  ASSERT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output()[0],
            "7 1 3 -4 3.5 ab true false false true false true false");
}

TEST(Vm, IntegerArithmeticWraps) {
  // INT64_MIN / -1 traps on x86 when done natively; the language wraps.
  // Folded at compile time and computed at run time alike.
  const std::string min = "(0 - 9223372036854775807 - 1)";
  const std::string folded = "print[" + min + " / (0 - 1), " + min +
                             " % (0 - 1), 9223372036854775807 + 1, "
                             "4611686018427387904 * 4, -" + min + "]";
  const std::string runtime =
      "def F(a, b, c) = print[a / b, a % b, c + 1, c * 2, -a] in "
      "F[" + min + ", 0 - 1, 9223372036854775807]";
  const std::string want =
      "-9223372036854775808 0 -9223372036854775808 0 -9223372036854775808";
  const std::string want_rt =
      "-9223372036854775808 0 -9223372036854775808 -2 -9223372036854775808";
  for (bool optimize : {true, false}) {
    Machine m("main");
    m.spawn_program(compile_source(folded, optimize));
    m.spawn_program(compile_source(runtime, optimize));
    m.run(10'000);
    ASSERT_TRUE(m.errors().empty()) << m.errors()[0];
    EXPECT_EQ(sorted(m.output()), sorted({want, want_rt}));
  }
  calc::Reducer red;
  red.add_program("main", comp::parse_program(runtime));
  red.run();
  EXPECT_EQ(red.output("main"), std::vector<std::string>{want_rt});
}

TEST(Vm, LargeIntImmediates) {
  auto m = run_local("print[1234567890123, -9876543210]");
  EXPECT_EQ(m.output(), std::vector<std::string>{"1234567890123 -9876543210"});
}

TEST(Vm, BasicCommunication) {
  auto m = run_local("new x (x!greet[41] | x?{ greet(v) = print[v + 1] })");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"42"});
  EXPECT_EQ(m.stats().comm_reductions, 1u);
}

TEST(Vm, ObjectBeforeMessage) {
  auto m = run_local("new x (x?(v) = print[v] | x![5])");
  EXPECT_EQ(m.output(), std::vector<std::string>{"5"});
}

TEST(Vm, MethodSelection) {
  auto m = run_local(
      "new x (x!b[2] | x?{ a(v) = print[\"a\", v], b(v) = print[\"b\", v] })");
  EXPECT_EQ(m.output(), std::vector<std::string>{"b 2"});
}

TEST(Vm, PaperCellExample) {
  auto m = run_local(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"9"});
  EXPECT_EQ(m.stats().inst_reductions, 2u);
  EXPECT_EQ(m.stats().comm_reductions, 2u);
}

TEST(Vm, PolymorphicCells) {
  auto m = run_local(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
      "write(u) = Cell[self, u] } in "
      "new x, y (Cell[x, 9] | Cell[y, true] "
      "| new z (x!read[z] | z?(w) = print[w]) "
      "| new t (y!read[t] | t?(w) = print[w]))");
  EXPECT_EQ(sorted(m.output()), (std::vector<std::string>{"9", "true"}));
}

TEST(Vm, MutualRecursion) {
  auto m = run_local(
      "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
      "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
      "in new out (Even[8, out] | out?(b) = print[b])");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"true"});
  EXPECT_EQ(m.stats().inst_reductions, 9u);
}

TEST(Vm, NestedObjectsCaptureEnvironment) {
  auto m = run_local(
      "new a, b (a![10] | a?(x) = b?{ get(r) = r![x * x] } | "
      "new r (b!get[r] | r?(v) = print[v]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"100"});
}

TEST(Vm, SiblingClassFromNestedObject) {
  // Cell's method body instantiates the enclosing class from inside an
  // object: the class value is captured into the object closure.
  auto m = run_local(
      "def Count(self, n) = self?{ tick(r) = (r![n] | Count[self, n + 1]) } "
      "in new c (Count[c, 0] | "
      "new r1 (c!tick[r1] | r1?(a) = new r2 (c!tick[r2] | r2?(b) = "
      "print[a, b])))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"0 1"});
}

TEST(Vm, FreeNamesAreSiteGlobals) {
  Machine m("main");
  m.spawn_program(compile_source("x![5]"));
  m.spawn_program(compile_source("x?(v) = print[v]"));
  m.run(10'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"5"});
}

TEST(Vm, IoPortFeedsRunningPrograms) {
  // The paper's per-site I/O port: users provide data to running
  // programs. The program listens on the free name `io`; the host
  // injects values into it.
  Machine m("main");
  m.spawn_program(compile_source(
      "def Echo(self) = self?{ val(v) = (print[\"in:\", v] | Echo[self]) } "
      "in Echo[io]"));
  m.run(10'000);
  EXPECT_TRUE(m.output().empty());
  m.io_send("io", "val", {Value::make_int(7)});
  m.io_send("io", "val", {Value::make_str(m.intern_string("hello"))});
  m.run(10'000);
  EXPECT_EQ(m.output(), (std::vector<std::string>{"in: 7", "in: hello"}));
}

TEST(Vm, IoPortCreatesChannelWhenProgramNotYetListening) {
  Machine m("main");
  m.io_send("io", "val", {Value::make_bool(true)});
  m.spawn_program(compile_source("io?(v) = print[v]"));
  m.run(10'000);
  EXPECT_EQ(m.output(), std::vector<std::string>{"true"});
}

TEST(Vm, IfBranchScopes) {
  // Bindings materialised in one branch must not corrupt the other.
  auto m = run_local(
      "if 1 < 2 then (new a (a![1] | a?(v) = print[\"t\", v])) "
      "else (new b (b![2] | b?(v) = print[\"e\", v]))");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"t 1"});
}

TEST(Vm, DeepParFanout) {
  // Three messages race toward a chain of ephemeral objects; each object
  // consumes exactly one message (objects are linear in TyCO).
  auto m = run_local(
      "new x (x?{ v(a) = (print[a] | x?{ v(b) = (print[b] | x?{ v(c) = 0 }) "
      "}) } | x!v[1] | x!v[2] | x!v[3])");
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output().size(), 2u);
  auto out = sorted(m.output());
  EXPECT_TRUE(out == (std::vector<std::string>{"1", "2"}) ||
              out == (std::vector<std::string>{"1", "3"}) ||
              out == (std::vector<std::string>{"2", "3"}));
}

// ---- counters / introspection ----------------------------------------

TEST(Vm, PendingCountsTracked) {
  auto m = run_local("new x (x![1] | x![2] | new y y?(v) = 0)");
  EXPECT_EQ(m.pending_messages(), 2u);
  EXPECT_EQ(m.pending_objects(), 1u);
  EXPECT_TRUE(m.idle());
}

TEST(Vm, InstructionBudgetPreemption) {
  Machine m("main");
  m.spawn_program(compile_source("def Loop(n) = Loop[n + 1] in Loop[0]"));
  const auto ran = m.run(1000);
  EXPECT_LE(ran, 1000u);
  EXPECT_FALSE(m.idle()) << "loop must survive preemption";
  m.run(1000);
  EXPECT_FALSE(m.idle());
  EXPECT_GE(m.stats().inst_reductions, 10u);
}

TEST(Vm, ForkCounted) {
  auto m = run_local("print[1] | print[2] | print[3]");
  EXPECT_EQ(m.stats().forks, 2u);
  EXPECT_EQ(m.stats().prints, 3u);
}

// ---- error handling ----------------------------------------------------

TEST(Vm, MethodNotUnderstood) {
  auto m = run_local("new x (x!nosuch[] | x?{ l(v) = 0 })");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("nosuch"), std::string::npos);
  EXPECT_EQ(m.pending_objects(), 1u);
}

TEST(Vm, ArityMismatch) {
  auto m = run_local("new x (x!l[1, 2] | x?{ l(v) = 0 })");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("arity"), std::string::npos);
}

TEST(Vm, DivisionByZero) {
  auto m = run_local("print[1 / 0]");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_TRUE(m.output().empty());
}

TEST(Vm, MessageToNonChannel) {
  auto m = run_local("new x (x![1] | x?(v) = v!go[])");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("target"), std::string::npos);
}

TEST(Vm, RemoteWithoutBackendErrors) {
  auto m = run_local("import p from elsewhere in p![1]");
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("backend"), std::string::npos);
}

TEST(CompileErrors, UnboundClass) {
  EXPECT_THROW(compile_source("Ghost[1]"), comp::CompileError);
}

TEST(CompileErrors, LocatedIdentifierRejected) {
  EXPECT_THROW(compile_source("s.x![1]"), comp::CompileError);
  EXPECT_THROW(compile_source("s.X[1]"), comp::CompileError);
}

TEST(CompileErrors, DuplicateMethodLabel) {
  EXPECT_THROW(compile_source("new x x?{ l(a) = 0, l(b) = 0 }"),
               comp::CompileError);
}

TEST(CompileErrors, DuplicateClass) {
  EXPECT_THROW(compile_source("def A() = 0 and A() = 0 in 0"),
               comp::CompileError);
}

TEST(CompileErrors, DuplicateParam) {
  EXPECT_THROW(compile_source("def A(x, x) = 0 in 0"), comp::CompileError);
}

// ---- fake backend: park/resume and export routing ----------------------

class FakeBackend : public RemoteBackend {
 public:
  void ship_message(Machine&, const NetRef&, const std::string&,
                    std::vector<Value>) override {
    ++ships;
  }
  void ship_object(Machine&, const NetRef&, std::uint32_t,
                   std::vector<Value>) override {
    ++ships;
  }
  void fetch_instantiate(Machine&, const NetRef&, std::vector<Value>) override {
    ++fetches;
  }
  void export_name(Machine& m, const std::string& name, Value chan) override {
    exported[name] = m.export_chan(chan.idx);
  }
  void export_class(Machine& m, const std::string& name, Value cls) override {
    exported[name] = m.export_class_value(cls);
  }
  void import_name(Machine& m, const std::string&, const std::string& name,
                   std::uint64_t token) override {
    if (synchronous) {
      // Resolve to the locally exported channel (loopback).
      m.resume_import(token, m.resolve_exported_chan(exported.at(name)));
    } else {
      pending.emplace_back(token, name);
    }
  }
  void import_class(Machine& m, const std::string& s, const std::string& n,
                    std::uint64_t t) override {
    import_name(m, s, n, t);
  }

  bool synchronous = true;
  int ships = 0;
  int fetches = 0;
  std::map<std::string, std::uint64_t> exported;
  std::vector<std::pair<std::uint64_t, std::string>> pending;
};

TEST(VmBackend, LoopbackImportExport) {
  FakeBackend be;
  Machine m("main", 0, 0, &be);
  m.spawn_program(compile_source(
      "export new p in p?{ val(x, r) = r![x * 2] } | "
      "import p from main in let z = p![21] in print[z]"));
  m.run(100'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.output(), std::vector<std::string>{"42"});
}

TEST(VmBackend, AsynchronousImportParksFrame) {
  FakeBackend be;
  be.synchronous = false;
  Machine m("main", 0, 0, &be);
  m.spawn_program(compile_source(
      "export new p in p?{ val(r) = r![7] } | "
      "import p from main in let z = p![] in print[z]"));
  m.run(100'000);
  EXPECT_TRUE(m.idle());
  EXPECT_EQ(m.parked(), 1u);
  ASSERT_EQ(be.pending.size(), 1u);
  // Deliver the lookup reply; the frame resumes and completes the RPC.
  m.resume_import(be.pending[0].first,
                  m.resolve_exported_chan(be.exported.at("p")));
  m.run(100'000);
  EXPECT_EQ(m.parked(), 0u);
  EXPECT_EQ(m.output(), std::vector<std::string>{"7"});
}

TEST(VmBackend, ShipMessageInvokedForNetRef) {
  FakeBackend be;
  Machine m("main", 0, 0, &be);
  const std::uint32_t ref =
      m.intern_netref(NetRef{NetRef::Kind::kChan, 9, 9, 1});
  Frame f;
  f.seg = m.load_program(compile_source("x!go[1]"));
  f.locals.push_back(Value::make_netref(ref));
  // Overwrite the global x binding: run the frame at pc past kGlobal.
  // Simpler: send via channel_send path is local; instead check that a
  // netref-valued target routes to the backend by delivering it through
  // an object parameter.
  Machine m2("main", 0, 0, &be);
  m2.spawn_program(compile_source("new c (c?(t) = t!go[1])"));
  m2.run(1000);
  const std::uint32_t ref2 =
      m2.intern_netref(NetRef{NetRef::Kind::kChan, 9, 9, 1});
  // Feed the netref to the waiting object via the exported channel path.
  // The object waits at channel c (index 0 in the heap).
  m2.channel_send(0, m2.intern_label("val"),
                  {Value::make_netref(ref2)});
  m2.run(1000);
  EXPECT_EQ(be.ships, 1);
  EXPECT_TRUE(m2.errors().empty());
}

// ---- segments -----------------------------------------------------------

TEST(Segments, SerializeRoundTrip) {
  auto prog = compile_source(
      "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]) } in "
      "new x (Cell[x, 2.5] | x!read[x])");
  for (const auto& seg : prog.segments) {
    Writer w;
    seg.serialize(w);
    Reader r(w.data());
    Segment back = Segment::deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back.guid, seg.guid);
    EXPECT_EQ(back.code, seg.code);
    EXPECT_EQ(back.labels, seg.labels);
    EXPECT_EQ(back.strings, seg.strings);
    EXPECT_EQ(back.floats, seg.floats);
    EXPECT_EQ(back.deps, seg.deps);
  }
}

TEST(Segments, ProgramByteSizeNonTrivial) {
  auto prog = compile_source("print[1]");
  EXPECT_GT(prog.byte_size(), 0u);
}

TEST(Segments, DisassemblerCoversAllOps) {
  auto prog = compile_source(
      "def C(x) = x![1] in new a (C[a] | a?(v) = "
      "(if v == 1 then print[\"one\" ++ \"!\"] else print[2.5] | a![-v]))");
  const std::string dis = comp::disassemble(prog);
  EXPECT_NE(dis.find("mkblock"), std::string::npos);
  EXPECT_NE(dis.find("instof"), std::string::npos);
  EXPECT_NE(dis.find("trobj"), std::string::npos);
  EXPECT_NE(dis.find("fork"), std::string::npos);
  EXPECT_NE(dis.find("jmpf"), std::string::npos);
}

TEST(Segments, ClosureCollection) {
  Machine m("main");
  auto prog = compile_source(
      "def C() = new x (x?{ l() = 0 } | x!l[]) in C[]");
  const std::uint32_t root = m.load_program(prog);
  std::vector<Segment> closure;
  m.collect_closure(root, closure);
  EXPECT_EQ(closure.size(), prog.segments.size())
      << "root closure must cover the whole program here";
}

// ---- channels: one ring queue per channel -------------------------------

/// A machine with one object segment loaded whose method `val(v)` does
/// nothing; returns its segment slot.
std::uint32_t load_sink(Machine& m) {
  const std::uint32_t root = m.load_program(compile_source("x?(v) = 0"));
  return root + 1;  // the object segment follows the root
}

TEST(Channel, FreshChannelOwnsNoHeapMemory) {
  Channel ch;
  EXPECT_EQ(ch.capacity(), 0u);
  EXPECT_EQ(ch.state(), Channel::State::kEmpty);
  Machine m("main");
  const std::uint32_t idx = m.new_channel();
  EXPECT_EQ(m.channel(idx).capacity(), 0u);
  EXPECT_TRUE(m.channel(idx).empty());
}

TEST(Channel, EmptyChannelPerformsNoAllocation) {
  std::vector<Channel> v;
  v.reserve(1000);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) v.emplace_back();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Channel, RingKeepsOrderAcrossWrapAndPushFront) {
  Channel ch;
  using S = Channel::State;
  for (std::uint32_t k = 0; k < 3; ++k) ch.push_back(S::kMessages, {k, {}});
  // Wrap the head around the ring's end a few times.
  for (std::uint32_t k = 3; k < 40; ++k) {
    EXPECT_EQ(ch.pop_front().id, k - 3);
    ch.push_back(S::kMessages, {k, {}});
  }
  ch.push_front(S::kMessages, {99, {}});
  ASSERT_EQ(ch.size(), 4u);
  EXPECT_LE(ch.capacity(), 4u);
  const std::uint32_t want[] = {99, 37, 38, 39};
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_EQ(ch.at(k).id, want[k]);
  for (std::uint32_t id : want) EXPECT_EQ(ch.pop_front().id, id);
  EXPECT_EQ(ch.state(), S::kEmpty);
  EXPECT_EQ(ch.capacity(), 0u) << "a drained channel releases its ring";
}

TEST(Channel, OneKindOfPrefixAtATime) {
  Channel ch;
  ch.push_back(Channel::State::kMessages, {1, {}});
  EXPECT_THROW(ch.push_back(Channel::State::kObjects, {2, {}}),
               std::logic_error);
  EXPECT_THROW(ch.push_front(Channel::State::kObjects, {2, {}}),
               std::logic_error);
  EXPECT_EQ(ch.pop_front().id, 1u);
  ch.push_back(Channel::State::kObjects, {2, {}});  // empty again: any kind
  EXPECT_EQ(ch.state(), Channel::State::kObjects);
}

TEST(Channel, StorageBoundedByPeakOccupancy) {
  // The channel always keeps at least one message queued: a queue that
  // only reclaimed space once it fully drained would grow without bound.
  Machine m("main");
  const std::uint32_t sink = load_sink(m);
  const std::uint32_t ch = m.new_channel();
  const std::uint32_t val = m.intern_label("val");
  m.channel_send(ch, val, {Value::make_int(0)});
  for (int k = 1; k <= 100'000; ++k) {
    m.channel_send(ch, val, {Value::make_int(k)});
    m.channel_recv(ch, sink, {});
    if (k % 1000 == 0) m.run(1'000'000);
  }
  m.run(1'000'000);
  EXPECT_TRUE(m.errors().empty());
  EXPECT_EQ(m.channel(ch).size(), 1u);
  EXPECT_LE(m.channel(ch).capacity(), 2u);
  EXPECT_EQ(m.channel(ch).at(0).vals.at(0).i, 100'000);
  EXPECT_EQ(m.stats().comm_reductions, 100'000u);
}

TEST(Channel, RefusedMessageKeepsObjectOrder) {
  // Two objects wait; the first refuses a message and must keep its
  // place at the front, so the next message still reaches it first.
  auto m = run_local(
      "new x (x?{ a(v) = print[\"first\", v] } | x?{ a(v) = print[\"second\", "
      "v] })");
  ASSERT_EQ(m.pending_objects(), 2u);
  // x is the program's only channel, so it sits in slot 0.
  m.channel_send(0, m.intern_label("nosuch"), {});
  m.channel_send(0, m.intern_label("a"), {Value::make_int(1)});
  m.run(10'000);
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_EQ(m.output(), std::vector<std::string>{"first 1"});
  EXPECT_EQ(m.pending_objects(), 1u);
  EXPECT_EQ(m.channel(0).state(), Channel::State::kObjects);
}

TEST(Channel, GcFreesQueuedChannelsAndReusesSlots) {
  Machine m("main");
  const std::uint32_t val = m.intern_label("val");
  std::vector<std::uint32_t> chans;
  for (int k = 0; k < 8; ++k) {
    chans.push_back(m.new_channel());
    for (int j = 0; j <= k; ++j)
      m.channel_send(chans.back(), val, {Value::make_int(j)});
  }
  EXPECT_EQ(m.pending_messages(), 36u);
  // No frame or root holds them: every channel is garbage.
  const auto out = m.gc();
  EXPECT_EQ(out.channels_freed, 8u);
  EXPECT_EQ(m.pending_messages(), 0u);
  EXPECT_EQ(m.live_channels(), 0u);
  for (int k = 0; k < 8; ++k) {
    const std::uint32_t idx = m.new_channel();
    EXPECT_LT(idx, 8u) << "freed slots are reused";
    EXPECT_TRUE(m.channel(idx).empty());
    EXPECT_EQ(m.channel(idx).capacity(), 0u);
  }
  EXPECT_EQ(m.live_channels(), 8u);
}

TEST(Gc, GrowthTriggerRearmsAtTwiceTheSurvivors) {
  Machine m("main");
  for (std::size_t k = 0; k + 1 < Machine::kGcMinHeap; ++k) m.new_channel();
  EXPECT_FALSE(m.gc_due());
  m.new_channel();
  EXPECT_TRUE(m.gc_due());
  // 600 exported channels survive, so the next trigger is at 1200.
  for (std::uint32_t idx = 0; idx < 600; ++idx) m.export_chan(idx);
  m.gc();
  EXPECT_EQ(m.live_channels(), 600u);
  while (m.live_channels() + 1 < 1200) m.new_channel();
  EXPECT_FALSE(m.gc_due());
  m.new_channel();
  EXPECT_TRUE(m.gc_due());
  EXPECT_EQ(m.heap_high_water(), 1200u) << "freed slots are reused first";
}

TEST(Gc, SteadyStateCollectionAllocatesNothing) {
  Machine m("main");
  auto churn = [&] {
    for (int k = 0; k < 2000; ++k) m.new_channel();
    EXPECT_EQ(m.gc().channels_freed, 2000u);
  };
  churn();  // sizes the mark bits and the free list
  const std::uint64_t before = g_allocations.load();
  churn();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Channel, QueueGauges) {
  obs::Registry reg;
  auto m = run_local("new x, y (x![1] | x![2] | x![3] | y![4] | new z 0)");
  m.register_metrics(reg);
  const auto g = reg.snapshot().gauges;
  EXPECT_EQ(g.at("vm_live_channels{site=\"main\"}"), 3);
  EXPECT_EQ(g.at("vm_channel_queue_max{site=\"main\"}"), 3);
  EXPECT_EQ(g.at("vm_pending_messages{site=\"main\"}"), 4);
}

TEST(Frames, PopCountCheckedBeforeAllocating) {
  // print 1000000 on an empty operand stack: the count is checked
  // against the stack before a vector of that many values is made.
  Segment seg;
  seg.guid = SegmentGuid{9, 9, 1};
  seg.code = {static_cast<std::uint32_t>(Op::kPrint), 1'000'000,
              static_cast<std::uint32_t>(Op::kHalt)};
  Machine m("m");
  std::map<SegmentGuid, Segment> pool{{seg.guid, seg}};
  Frame f;
  f.seg = m.link(seg.guid, pool);
  m.spawn_frame(std::move(f));
  const std::uint64_t before = g_allocated_bytes.load();
  m.run(100);
  EXPECT_LT(g_allocated_bytes.load() - before, 1u << 20);
  ASSERT_EQ(m.errors().size(), 1u);
  EXPECT_NE(m.errors()[0].find("underflow"), std::string::npos);
}

TEST(Frames, BodyWithTooManyLocalsIsACompileError) {
  std::string names;
  for (std::uint32_t k = 0; k <= kMaxLocals; ++k)
    names += (k ? ", c" : "c") + std::to_string(k);
  EXPECT_THROW(compile_source("new " + names + " 0"), comp::CompileError);
}

// ---- differential tests against the reference reducer -------------------

TEST(DifferentialRegression, RefusedMessageRetriesNextQueued) {
  // The object meets `bad` first, refuses it, and must then meet the
  // still-queued `val` — as the reducer does — instead of waiting with
  // a message it understands queued on the same channel.
  const char* src =
      "def D(x, k) = if k == 0 then x?{ val(v) = print[v] } else "
      "D[x, k - 1] in new x (D[x, 5] | x!val[2] | x!bad[1])";
  calc::Reducer red;
  red.add_program("main", comp::parse_program(src));
  const auto rres = red.run();
  EXPECT_EQ(red.output("main"), std::vector<std::string>{"2"});
  EXPECT_EQ(rres.pending_messages + rres.pending_objects, 0u);

  auto m = run_local(src);
  EXPECT_EQ(m.output(), std::vector<std::string>{"2"});
  EXPECT_EQ(m.pending_messages(), 0u);
  EXPECT_EQ(m.pending_objects(), 0u);
  EXPECT_EQ(m.errors().size(), rres.errors.size());
}

class Differential : public ::testing::TestWithParam<const char*> {};

TEST_P(Differential, VmMatchesReducer) {
  const char* src = GetParam();

  calc::Reducer red;
  red.add_program("main", comp::parse_program(src));
  auto rres = red.run();
  ASSERT_TRUE(rres.errors.empty()) << rres.errors[0];

  auto m = run_local(src);
  ASSERT_TRUE(m.errors().empty()) << m.errors()[0];

  EXPECT_EQ(sorted(m.output()), sorted(red.output("main"))) << src;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, Differential,
    ::testing::Values(
        "print[42]",
        "print[1]; print[2]",
        "new x (x![1] | x?(v) = print[v])",
        "new x (x?(v) = print[v] | x![1])",
        "new x (x!a[1] | x!a[2] | x?{ a(v) = (print[v] | x?{ a(w) = print[w] "
        "}) })",
        "def Cell(self, v) = self?{ read(r) = (r![v] | Cell[self, v]), "
        "write(u) = Cell[self, u] } in "
        "new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print[w]))",
        "def F(n, acc, r) = if n == 0 then r![acc] else F[n - 1, acc * n, r] "
        "in new out (F[10, 1, out] | out?(v) = print[v])",
        "def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r] "
        "and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r] "
        "in new o (Even[5, o] | o?(b) = print[b])",
        "x![3] | x?(v) = print[v * v]",
        "new a, b (a![1] | b![2] | a?(x) = b?(y) = print[x + y])",
        "print[\"s\" ++ \"t\", 1.5 * 2, 7 % 4, -(3 - 5)]",
        "if 2 > 1 then (if false then print[0] else print[1]) else print[2]",
        "let z = c![] in print[z] | c?(r) = r![99]"));

}  // namespace
}  // namespace dityco::vm
