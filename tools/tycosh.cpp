// tycosh — the DiTyCO shell (paper, section 5: "Users submit new
// programs for execution in a node using a shell program called TyCOsh").
//
// Usage:
//   tycosh [options] program.dtc
//   tycosh [options] -e 'site a { print[1] }'
//
// The program file is either a bare process (run at a site called
// "main") or a network file of `site name { P }` blocks. By default each
// site gets its own node; --nodes N packs sites onto N nodes round-robin.
//
// Options:
//   -e SRC           run SRC instead of a file
//   --mode M         seq (default) | threads | sim
//   --link L         myrinet (default) | ethernet     (sim mode)
//   --nodes N        number of nodes (default: one per site)
//   --transport T    inproc (default) | tcp. tcp routes every inter-node
//                    packet over real loopback sockets (an in-process
//                    mesh; docs/NETWORKING.md)
//   --tcp HOST:PORT  run as ONE node of a multi-process network, bound
//                    to HOST:PORT (implies --transport tcp and
//                    --mode threads; see also tycod, the daemon form)
//   --node N         this process's node id (with --tcp; default 0)
//   --join HOST:PORT address of node 0 (with --tcp; shorthand for
//                    --peer 0=HOST:PORT)
//   --peer N=H:P     static peer address (with --tcp; repeatable)
//   --ns-shards N    shard the name service N ways by name hash
//                    (default 1 = the paper's central service on
//                    node 0; see docs/NAMESERVICE.md)
//   --ns-replicas N  followers per shard slice (default 1)
//   --ns-lease-ms N  lease-based client-side lookup caching (TTL in ms;
//                    default 0 = off)
//   --typecheck      infer types; reject ill-typed programs; enable the
//                    dynamic signature check on imports
//   --check          static whole-network type check only (no execution)
//   --disasm         print the compiled byte-code and exit
//   --stats, :stats  print the unified metrics registry after the run
//   :trace FILE      enable causal event tracing and write the merged
//                    timeline as Chrome trace-event JSON to FILE (open in
//                    chrome://tracing or https://ui.perfetto.dev)
//   --sample N       with tracing: record only 1-in-N trace ids
//   --monitor PORT   start TyCOmon on PORT (0 = ephemeral); GET /metrics,
//                    /metrics.json, /trace, /healthz, /flight, /profile.
//                    Implies tracing. :serve = --monitor 0
//   --bind ADDR      TyCOmon bind address (default 127.0.0.1). Anything
//                    else serves the endpoints off-host: plain text, no
//                    authentication — use only on trusted networks
//   --linger MS      keep the process (and TyCOmon) alive MS ms after the
//                    run so the endpoints can be scraped post-mortem
//   :profile         enable the sampled VM profiler (1-in-1024
//                    instructions) and print the folded stacks after the
//                    run (`site;definition;opcode count`)
//   :flight FILE     enable tail-based trace retention and write the
//                    promoted traces as Chrome trace JSON to FILE
//   --flight-slow-us N   with :flight (or alone: implies it), promote
//                    mobility operations slower than N µs
//   :peers           after the run, print this node's transport view of
//                    the fleet (gossip + failure detector: per-peer
//                    state, phi, RTT, queue depth) as JSON
//   :fleet URL       one-shot federated scrape: discover every TyCOmon
//                    reachable from the seed monitor URL via /peers and
//                    print one merged metrics JSON document (no program
//                    file needed)
//   :gc              after the run, print every site's distributed-GC
//                    export/import ledgers as JSON (the /gc document)
//   :names           after the run, print the name-service tables as
//                    JSON (the /names document)
//   :slo             enable the workload SLO plane (request ledger +
//                    burn-rate evaluation; implies tracing) and print
//                    the /slo document after the run
//   :audit           after the run, check the GC conservation invariant
//                    over the local tables and print the report; the
//                    exit code turns nonzero on a confirmed imbalance
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/codegen.hpp"
#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "obs/fleet.hpp"
#include "types/infer.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: tycosh [options] program.dtc\n"
      "       tycosh [options] -e 'source'\n"
      "options: --mode seq|threads|sim  --link myrinet|ethernet\n"
      "         --nodes N  --typecheck  --check  --disasm\n"
      "         --transport inproc|tcp  loopback-socket mesh transport\n"
      "         --tcp HOST:PORT        one node of a multi-process network\n"
      "         --advertise HOST       reach-back host gossiped to peers\n"
      "         --node N  --join HOST:PORT  --peer N=HOST:PORT\n"
      "         --ns-shards N  --ns-replicas N  --ns-lease-ms N\n"
      "                                (1 shard, the default, is the\n"
      "                                central name service on node 0)\n"
      "         --flush-bytes N  --flush-frames N  writev coalescing caps\n"
      "         --stats | :stats       print the metrics registry\n"
      "         :trace FILE.json       write a Perfetto/Chrome trace\n"
      "         --sample N             trace 1-in-N operations\n"
      "         --monitor PORT | :serve  start TyCOmon (0 = ephemeral)\n"
      "         --bind ADDR            TyCOmon bind address (default\n"
      "                                127.0.0.1; other values are served\n"
      "                                unauthenticated — trusted nets only)\n"
      "         --linger MS            keep TyCOmon up after the run\n"
      "         :profile               sampled VM profiler, folded stacks\n"
      "         :flight FILE.json      tail-based retention -> Chrome trace\n"
      "         --flight-slow-us N     promote operations slower than N us\n"
      "         :peers                 print the transport's fleet view\n"
      "         :fleet URL             one-shot federated metrics scrape\n"
      "         :gc                    print the GC credit ledgers (JSON)\n"
      "         :names                 print the name-service tables (JSON)\n"
      "         :slo                   SLO plane; print /slo after the run\n"
      "         :audit                 check the GC conservation invariant\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  std::string path;
  std::string mode = "seq";
  std::string link = "myrinet";
  std::string transport = "inproc";
  std::string tcp_listen;
  std::string advertise_host;
  int self_node = 0;
  std::map<std::uint32_t, std::string> tcp_peers;
  int nodes = 0;
  bool typecheck = false, check_only = false, disasm = false, stats = false;
  std::string trace_path;
  bool monitor = false;
  int monitor_port = 0;
  std::string bind_addr = "127.0.0.1";
  long sample_every = 1;
  long linger_ms = 0;
  bool profile = false;
  std::string flight_path;
  bool flight = false;
  double flight_slow_us = 0;
  bool show_peers = false;
  bool show_gc = false, show_names = false, do_audit = false;
  bool show_slo = false;
  std::string fleet_url;
  long flush_bytes = -1, flush_frames = -1;
  long ns_shards = 1, ns_replicas = 1, ns_lease_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-e" && i + 1 < argc) {
      source = argv[++i];
    } else if (arg == "--mode" && i + 1 < argc) {
      mode = argv[++i];
    } else if (arg == "--link" && i + 1 < argc) {
      link = argv[++i];
    } else if (arg == "--nodes" && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (arg == "--transport" && i + 1 < argc) {
      transport = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      tcp_listen = argv[++i];
    } else if (arg == "--advertise" && i + 1 < argc) {
      advertise_host = argv[++i];
    } else if (arg == "--node" && i + 1 < argc) {
      self_node = std::atoi(argv[++i]);
    } else if (arg == "--join" && i + 1 < argc) {
      tcp_peers[0] = argv[++i];
    } else if (arg == "--peer" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto eq = spec.find('=');
      if (eq == std::string::npos) return usage();
      tcp_peers[static_cast<std::uint32_t>(
          std::atoi(spec.substr(0, eq).c_str()))] = spec.substr(eq + 1);
    } else if (arg == "--flush-bytes" && i + 1 < argc) {
      flush_bytes = std::atol(argv[++i]);
    } else if (arg == "--flush-frames" && i + 1 < argc) {
      flush_frames = std::atol(argv[++i]);
    } else if (arg == "--ns-shards" && i + 1 < argc) {
      ns_shards = std::atol(argv[++i]);
    } else if (arg == "--ns-replicas" && i + 1 < argc) {
      ns_replicas = std::atol(argv[++i]);
    } else if (arg == "--ns-lease-ms" && i + 1 < argc) {
      ns_lease_ms = std::atol(argv[++i]);
    } else if (arg == "--typecheck") {
      typecheck = true;
    } else if (arg == "--check") {
      check_only = true;
    } else if (arg == "--disasm") {
      disasm = true;
    } else if (arg == "--stats" || arg == ":stats") {
      stats = true;
    } else if ((arg == ":trace" || arg == "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--sample" && i + 1 < argc) {
      sample_every = std::atol(argv[++i]);
    } else if (arg == "--monitor" && i + 1 < argc) {
      monitor = true;
      monitor_port = std::atoi(argv[++i]);
    } else if (arg == ":serve") {
      monitor = true;
      monitor_port = 0;
    } else if (arg == "--bind" && i + 1 < argc) {
      bind_addr = argv[++i];
    } else if (arg == ":profile" || arg == "--profile") {
      profile = true;
    } else if ((arg == ":flight" || arg == "--flight") && i + 1 < argc) {
      flight = true;
      flight_path = argv[++i];
    } else if (arg == "--flight-slow-us" && i + 1 < argc) {
      flight = true;
      flight_slow_us = std::atof(argv[++i]);
    } else if (arg == ":peers" || arg == "--peers") {
      show_peers = true;
    } else if (arg == ":gc" || arg == "--gc") {
      show_gc = true;
    } else if (arg == ":names" || arg == "--names") {
      show_names = true;
    } else if (arg == ":slo" || arg == "--slo") {
      show_slo = true;
    } else if (arg == ":audit" || arg == "--audit") {
      do_audit = true;
    } else if ((arg == ":fleet" || arg == "--fleet") && i + 1 < argc) {
      fleet_url = argv[++i];
    } else if (arg == "--linger" && i + 1 < argc) {
      linger_ms = std::atol(argv[++i]);
    } else if (!arg.empty() && (arg[0] == '-' || arg[0] == ':')) {
      return usage();
    } else {
      path = arg;
    }
  }
  // :fleet is a one-shot scrape, not a run: walk /peers from the seed
  // monitor, pull every node's /metrics.json, print one federated
  // document, exit. No program file involved.
  if (!fleet_url.empty()) {
    namespace fleet = dityco::obs::fleet;
    const std::vector<fleet::NodeEndpoint> eps = fleet::discover(fleet_url);
    if (eps.empty()) {
      std::cerr << "tycosh: no reachable monitors at " << fleet_url << "\n";
      return 1;
    }
    std::vector<std::pair<std::uint32_t, std::string>> docs;
    for (const fleet::NodeEndpoint& ep : eps)
      docs.emplace_back(ep.node,
                        fleet::http_get(ep.host, ep.monitor, "/metrics.json"));
    std::cout << fleet::federate_metrics_json(docs) << "\n";
    return 0;
  }

  if (source.empty() && path.empty()) return usage();
  if (source.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "tycosh: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  try {
    auto programs = dityco::comp::parse_network(source);

    if (check_only) {
      auto problems = dityco::types::check_network(programs);
      if (problems.empty()) {
        std::cout << "well typed: " << programs.size() << " site(s)\n";
        return 0;
      }
      for (const auto& p : problems) std::cout << "problem: " << p << "\n";
      return 1;
    }

    if (disasm) {
      for (const auto& [site, prog] : programs) {
        std::cout << "== site " << site << " ==\n"
                  << dityco::comp::disassemble(dityco::comp::compile(prog));
      }
      return 0;
    }

    dityco::core::Network::Config cfg;
    if (mode == "seq") {
      cfg.mode = dityco::core::Network::Mode::kSequential;
    } else if (mode == "threads") {
      cfg.mode = dityco::core::Network::Mode::kThreaded;
    } else if (mode == "sim") {
      cfg.mode = dityco::core::Network::Mode::kSim;
    } else {
      return usage();
    }
    cfg.link = link == "ethernet" ? dityco::net::fast_ethernet()
                                  : dityco::net::myrinet();
    cfg.typecheck = typecheck;
    // --tcp / --join / --peer put this process into a multi-process
    // network: one node, real sockets, peers are other tycosh/tycod
    // processes. --transport tcp alone builds an in-process loopback
    // mesh (every node gets its own socket endpoint).
    const bool multiprocess = !tcp_listen.empty() || !tcp_peers.empty();
    if (transport == "tcp" || multiprocess) {
      cfg.transport = dityco::core::Network::TransportKind::kTcp;
      if (multiprocess) {
        cfg.mode = dityco::core::Network::Mode::kThreaded;
        cfg.tcp.multiprocess = true;
        cfg.tcp.self = static_cast<std::uint32_t>(self_node);
        cfg.tcp.peers = tcp_peers;
        if (!tcp_listen.empty()) {
          const auto [host, port] = dityco::net::parse_hostport(tcp_listen);
          cfg.tcp.listen_host = host;
          cfg.tcp.listen_port = port;
        }
        cfg.tcp.advertise_host = advertise_host;
      }
    } else if (transport != "inproc") {
      return usage();
    }
    if (flush_bytes >= 0)
      cfg.tcp.flush_bytes = static_cast<std::size_t>(flush_bytes);
    if (flush_frames >= 0)
      cfg.tcp.flush_frames = static_cast<std::size_t>(flush_frames);
    cfg.ns_shards = static_cast<std::uint32_t>(ns_shards < 1 ? 1 : ns_shards);
    cfg.ns_replicas =
        static_cast<std::uint32_t>(ns_replicas < 0 ? 0 : ns_replicas);
    cfg.ns_lease_ms =
        static_cast<std::uint64_t>(ns_lease_ms < 0 ? 0 : ns_lease_ms);

    dityco::core::Network net(cfg);
    const int nnodes = cfg.tcp.multiprocess
                           ? 1
                           : nodes > 0 ? nodes
                                       : static_cast<int>(programs.size());
    for (int i = 0; i < nnodes; ++i) net.add_node();
    for (std::size_t i = 0; i < programs.size(); ++i)
      net.add_site(i % static_cast<std::size_t>(nnodes), programs[i].first);
    if (cfg.tcp.multiprocess)
      std::cout << "tycosh node" << cfg.tcp.self << " listening on "
                << cfg.tcp.listen_host << ":" << net.tcp_transport()->port()
                << std::endl;
    for (const auto& [site, prog] : programs) net.submit(site, prog);
    // A monitored run always traces: /trace would otherwise be empty.
    if (!trace_path.empty() || monitor || flight)
      net.enable_tracing(1 << 14,
                         sample_every > 1
                             ? static_cast<std::uint64_t>(sample_every)
                             : 1);
    if (flight) {
      dityco::obs::FlightPolicy fp;
      fp.slow_us = flight_slow_us;
      net.enable_flight(fp);
    }
    if (show_slo) net.enable_slo();
    if (profile) net.enable_profiling(1024);
    if (monitor) {
      const std::uint16_t port = net.start_monitor(
          static_cast<std::uint16_t>(monitor_port), bind_addr);
      if (port == 0) {
        std::cerr << "tycosh: cannot start TyCOmon on port " << monitor_port
                  << "\n";
        return 1;
      }
      // Flushed before the run so scripts can parse the port and start
      // scraping while the network executes.
      std::cout << "tycomon listening on http://" << bind_addr << ":" << port
                << std::endl;
    }

    auto res = net.run();

    for (const auto& [site, _] : programs)
      for (const auto& line : net.output(site))
        std::cout << "[" << site << "] " << line << "\n";
    for (const auto& err : net.all_errors())
      std::cerr << "error: " << err << "\n";

    std::cout << "-- " << (res.quiescent ? "quiescent" : res.stalled
                               ? "STALLED (import waiting on a missing export)"
                               : "BUDGET EXHAUSTED");
    if (cfg.mode == dityco::core::Network::Mode::kSim)
      std::cout << ", virtual time " << res.virtual_time_us << " us";
    std::cout << ", " << res.instructions << " instructions, " << res.packets
              << " packets\n";

    if (stats) std::cout << net.metrics().expose_text();
    if (show_peers) std::cout << net.peers_json() << "\n";
    if (show_gc) std::cout << net.gc_json() << "\n";
    if (show_names) std::cout << net.names_json() << "\n";
    if (show_slo) std::cout << net.slo_json() << "\n";
    bool audit_ok = true;
    if (do_audit) {
      const auto rep = net.self_audit(/*include_fleet=*/false);
      std::cout << rep.to_text();
      audit_ok = rep.balanced;
    }

    if (profile) {
      const std::string folded = net.profile_folded();
      std::cout << "-- profile (" << (folded.empty() ? "no samples" : "folded")
                << ") --\n" << folded;
    }
    if (!flight_path.empty()) {
      std::ofstream out(flight_path);
      if (!out) {
        std::cerr << "tycosh: cannot write " << flight_path << "\n";
        return 1;
      }
      out << net.flight_json();
      std::cout << "flight recording written to " << flight_path << "\n";
    }

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "tycosh: cannot write " << trace_path << "\n";
        return 1;
      }
      out << net.trace_json();
      std::cout << "trace written to " << trace_path << "\n";
    }
    if (monitor && linger_ms > 0) {
      std::cout << "tycomon lingering for " << linger_ms << " ms"
                << std::endl;
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    return res.quiescent && net.all_errors().empty() && audit_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tycosh: " << e.what() << "\n";
    return 1;
  }
}
