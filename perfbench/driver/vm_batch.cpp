// Workload vm_batch: one site under the sequential driver (what
// `tycosh prog.dtc` runs), repeated on a fresh Network until the time
// budget is spent. Each repetition is checked against the expectation
// file run.py computes natively from the seeded program:
//
//   comm N / inst N / chan N   exact reduction and allocation counts
//   out LINE                   one printed line (order-insensitive)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "driver/common.hpp"

namespace pb {

namespace {

struct Expect {
  std::uint64_t comm = 0, inst = 0, chan = 0;
  std::vector<std::string> out;  // sorted
};

Expect read_expect(const std::string& path) {
  Expect e;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("comm ", 0) == 0) e.comm = std::stoull(line.substr(5));
    else if (line.rfind("inst ", 0) == 0) e.inst = std::stoull(line.substr(5));
    else if (line.rfind("chan ", 0) == 0) e.chan = std::stoull(line.substr(5));
    else if (line.rfind("out ", 0) == 0) e.out.push_back(line.substr(4));
  }
  std::sort(e.out.begin(), e.out.end());
  return e;
}

}  // namespace

int run_vm(const Args& a) {
  const std::string src = read_file(a.str("program"));
  const Expect expect = read_expect(a.str("expect"));
  const double seconds = a.num("seconds", 5);
  const bool tracing = a.str("tracing", "0") == "1";
  Spans spans(a.str("spans"));

  std::vector<double> setup_s, run_s, rate;
  std::uint64_t reductions = 0, failed = 0;
  std::string first_error;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (setup_s.size() < 5 || now_ns() < deadline) {
    const std::uint64_t rep = setup_s.size() + 1;
    const std::uint64_t span = spans.begin("vm_batch.rep", 0, rep);
    const std::uint64_t t0 = now_ns();
    dityco::core::Network::Config cfg;
    cfg.max_instructions = ~0ull;
    dityco::core::Network net(cfg);
    if (tracing) net.enable_tracing();
    net.add_node();
    net.add_site(0, "main");
    net.submit_source("main", src);  // parse + compile + load
    const std::uint64_t t1 = now_ns();
    const auto res = net.run();
    const std::uint64_t t2 = now_ns();
    spans.add("core.Network::submit_source", t0, t1, span, rep);
    spans.add("core.Network::run", t1, t2, span, rep);
    spans.end(span);

    const auto& m = net.find_site("main")->machine();
    const std::uint64_t comm = m.stats().comm_reductions.value();
    const std::uint64_t inst = m.stats().inst_reductions.value();
    const std::uint64_t chan =
        m.live_channels() + m.gc_stats().channels_freed.value();
    std::vector<std::string> out = net.output("main");
    std::sort(out.begin(), out.end());
    std::string err;
    if (!res.quiescent) err = "not quiescent";
    else if (comm != expect.comm)
      err = "comm " + std::to_string(comm) + " != " + std::to_string(expect.comm);
    else if (inst != expect.inst)
      err = "inst " + std::to_string(inst) + " != " + std::to_string(expect.inst);
    else if (chan != expect.chan)
      err = "chan " + std::to_string(chan) + " != " + std::to_string(expect.chan);
    else if (out != expect.out)
      err = "output differs: " + (out.empty() ? std::string("<none>") : out[0]);
    if (!err.empty()) {
      ++failed;
      if (first_error.empty()) first_error = err;
    }
    const double run = static_cast<double>(t2 - t1) / 1e9;
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    run_s.push_back(run);
    rate.push_back(static_cast<double>(comm + inst) / run);
    reductions = comm + inst;
  }

  std::printf("%s\n",
              JsonObj()
                  .integer("reps", setup_s.size())
                  .integer("failed", failed)
                  .str("first_error", first_error)
                  .integer("reductions_per_rep", reductions)
                  .raw("setup_s", json_list(setup_s))
                  .raw("run_s", json_list(run_s))
                  .raw("reductions_per_s", json_list(rate))
                  .integer("vm_hwm_kb", static_cast<std::uint64_t>(vm_hwm_kb()))
                  .done()
                  .c_str());
  return 0;
}

}  // namespace pb
