// Per-layer measurements taken from outside the modules: each number
// times calls into a module's public functions on the workload's seeded
// inputs. Nothing here reaches into src/ beyond its headers.
//
//   compiler  comp::compile_source / parse_network + compile
//   vm        Machine::run on the vm_batch program and on each kernel
//             alone; Machine::link of one applet closure
//   core      Network::run on the same program (driver share)
//   wire      write_header + marshal_values / read_header +
//             unmarshal_values on the rpc request shape; collect_closure
//             + write_closure / read_closure of one applet
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"
#include "driver/common.hpp"

namespace pb {

namespace {

using dityco::vm::Machine;
using dityco::vm::Program;
using dityco::vm::Value;

/// Median ns per call of `fn`, over batches of at least ~2 ms each,
/// until `budget_s` is spent (at least five batches).
double per_call_ns(const std::function<void()>& fn, double budget_s,
                   Spans& spans, const char* name) {
  std::uint64_t batch = 1;
  for (;;) {  // calibrate
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t0 >= 2'000'000 || batch >= (1u << 24)) break;
    batch *= 4;
  }
  std::vector<double> means;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (means.size() < 5 || now_ns() < deadline) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    const std::uint64_t t1 = now_ns();
    spans.add(name, t0, t1, 0, batch);
    means.push_back(static_cast<double>(t1 - t0) / static_cast<double>(batch));
  }
  return median(means);
}

/// A file is either a bare process or a `site name { P }` network.
std::vector<Program> compile_file(const std::string& src) {
  std::vector<Program> out;
  if (src.find("site ") != std::string::npos) {
    for (const auto& [site, proc] : dityco::comp::parse_network(src))
      out.push_back(dityco::comp::compile(proc));
  } else {
    out.push_back(dityco::comp::compile_source(src));
  }
  return out;
}

struct BareRun {
  double seconds = 0;
  std::uint64_t instructions = 0, comm = 0, inst = 0, chans = 0;
};

BareRun run_bare(const Program& prog, Spans& spans, const char* name) {
  Machine m("main");
  m.spawn_program(prog);
  const std::uint64_t t0 = now_ns();
  m.run(~0ull);
  const std::uint64_t t1 = now_ns();
  spans.add(name, t0, t1);
  // No collection runs inside Machine::run, so every channel the run
  // allocated is still live.
  return BareRun{static_cast<double>(t1 - t0) / 1e9,
                 m.stats().instructions.value(),
                 m.stats().comm_reductions.value(),
                 m.stats().inst_reductions.value(), m.live_channels()};
}

/// Repeat `fn` until `budget_s` is spent (at least three times).
template <typename F>
void repeat_for(double budget_s, F fn) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (int i = 0; i < 3 || now_ns() < deadline; ++i) fn();
}

}  // namespace

int run_layers(const Args& a) {
  const double budget = a.num("seconds", 4);
  Spans spans(a.str("spans"));
  JsonObj out;

  // -- compiler: the workload's own programs ---------------------------
  std::vector<std::string> sources;
  for (const auto& path : a.all("compile")) sources.push_back(read_file(path));
  const double compile_ns = per_call_ns(
      [&] {
        for (const auto& s : sources) (void)compile_file(s);
      },
      budget * 0.1, spans, "comp.compile_source");
  out.num("compile_ms", compile_ns / 1e6);

  // -- vm: bare Machine::run vs Network::run on the vm_batch program ----
  const std::string vm_src = read_file(a.str("vm-program"));
  const Program vm_prog = dityco::comp::compile_source(vm_src);
  // Bare and driven runs alternate, so host noise lands on both alike.
  std::vector<double> bare_s, instr_rate, net_s;
  repeat_for(budget * 0.4, [&] {
    const BareRun r = run_bare(vm_prog, spans, "vm.Machine::run");
    bare_s.push_back(r.seconds);
    instr_rate.push_back(static_cast<double>(r.instructions) / r.seconds);
    dityco::core::Network::Config cfg;
    cfg.max_instructions = ~0ull;
    dityco::core::Network net(cfg);
    net.add_node();
    net.add_site(0, "main");
    net.submit_source("main", vm_src);
    const std::uint64_t t0 = now_ns();
    net.run();
    const std::uint64_t t1 = now_ns();
    spans.add("core.Network::run", t0, t1);
    net_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  });
  out.num("instr_per_s", median(instr_rate));
  out.num("driver_share", 1.0 - median(bare_s) / median(net_s));

  // -- vm: each kernel alone --------------------------------------------
  for (const auto& spec : a.all("kernel")) {
    const auto eq = spec.find('=');
    const std::string kind = spec.substr(0, eq);
    const Program prog =
        dityco::comp::compile_source(read_file(spec.substr(eq + 1)));
    std::vector<double> rate;
    repeat_for(budget * 0.1, [&] {
      const BareRun r = run_bare(prog, spans, "vm.Machine::run");
      const std::uint64_t n =
          kind == "comm" ? r.comm : kind == "inst" ? r.inst : r.chans;
      rate.push_back(static_cast<double>(n) / r.seconds);
    });
    out.num(kind + "_per_s", median(rate));
  }

  // -- wire + link: one applet closure ----------------------------------
  const Program applet = dityco::comp::compile_source(read_file(a.str("applet")));
  Machine code("code", 0, 0);
  code.load_program(applet);
  std::uint32_t obj_slot = applet.root;
  for (std::uint32_t k = 0; k < applet.segments.size(); ++k)
    if (applet.segments[k].name.rfind("{", 0) == 0) obj_slot = k;
  std::vector<std::uint8_t> closure_bytes;
  const double enc_ns = per_call_ns(
      [&] {
        std::vector<dityco::vm::Segment> segs;
        code.collect_closure(obj_slot, segs);
        dityco::Writer w;
        dityco::core::write_closure(w, segs);
        closure_bytes = w.take();
      },
      budget * 0.07, spans, "wire.collect_closure+write_closure");
  dityco::vm::SegmentGuid root{};
  std::map<dityco::vm::SegmentGuid, dityco::vm::Segment> pool;
  const double dec_ns = per_call_ns(
      [&] {
        dityco::Reader r(closure_bytes);
        pool = dityco::core::read_closure(r, root);
      },
      budget * 0.07, spans, "wire.read_closure");
  std::vector<double> link_us;
  repeat_for(budget * 0.08, [&] {
    // Machine::link deduplicates by GUID, so every timed link needs a
    // machine that has never seen the closure.
    for (int i = 0; i < 64; ++i) {
      Machine gw("gw", 1, 0);
      const std::uint64_t t0 = now_ns();
      gw.link(root, pool);
      const std::uint64_t t1 = now_ns();
      spans.add("vm.Machine::link", t0, t1);
      link_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  });
  out.num("closure_encode_us", enc_ns / 1e3);
  out.num("closure_decode_us", dec_ns / 1e3);
  out.num("link_us", median(link_us));

  // -- wire: the rpc_fleet request shape [int, reply netref] -------------
  Machine echo("echo", 0, 0);
  const std::vector<Value> args{Value::make_int(41),
                                Value::make_chan(echo.new_channel())};
  std::vector<std::uint8_t> rpc_bytes;
  const double rpc_enc = per_call_ns(
      [&] {
        dityco::Writer w;
        dityco::core::write_header(w, dityco::core::MsgType::kShipMsg, 0,
                                   0x1234, true, true);
        w.u64(7);
        w.str("val");
        dityco::core::marshal_values(echo, args, w, true);
        rpc_bytes = w.take();
      },
      budget * 0.08, spans, "wire.write_header+marshal_values");
  Machine gen("gen", 1, 0);
  const double rpc_dec = per_call_ns(
      [&] {
        dityco::Reader r(rpc_bytes);
        const auto h = dityco::core::read_header(r);
        (void)r.u64();
        (void)r.str();
        (void)dityco::core::unmarshal_values(gen, r, h.gc);
      },
      budget * 0.08, spans, "wire.read_header+unmarshal_values");
  out.num("rpc_encode_ns", rpc_enc);
  out.num("rpc_decode_ns", rpc_dec);

  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace pb
