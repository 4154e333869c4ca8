// Shared helpers for the perfbench driver: argument parsing, clocks,
// order statistics, JSON emission and pbdriver's own span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// `--key value` pairs; a key may repeat.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string k = argv[i];
      if (k.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::runtime_error("bad argument: " + k);
      kv_[k.substr(2)].push_back(argv[++i]);
    }
  }
  std::string str(const std::string& k, const std::string& def = "") const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second.back();
  }
  double num(const std::string& k, double def) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : std::stod(it->second.back());
  }
  std::vector<std::string> all(const std::string& k) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> kv_;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Linear-interpolated quantile (the same definition numpy uses by
/// default); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process (VmHWM), kB.
inline long vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return 0;
}

/// Flat JSON object builder (numbers, strings, raw sub-documents).
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  JsonObj& integer(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      esc += c;
    }
    return raw(k, "\"" + esc + "\"");
  }
  JsonObj& raw(const std::string& k, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + k + "\":" + v;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

inline std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// pbdriver's own spans around the public-layer calls it makes. Held in
/// memory while measuring (one push per span, no I/O) and written as
/// JSON lines at exit. Disabled unless a path is given.
class Spans {
 public:
  explicit Spans(std::string path) : path_(std::move(path)) {}
  ~Spans() { flush(); }
  bool on() const { return !path_.empty(); }

  /// Open a span starting now (or at `start`); returns its id (0 when
  /// disabled).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t req = 0, std::uint64_t start = 0) {
    if (!on()) return 0;
    spans_.push_back(Span{name, start ? start : now_ns(), 0, parent, req});
    return spans_.size();
  }
  void end(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end = now_ns();
  }
  /// Record a span whose bounds were measured by the caller.
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t parent = 0, std::uint64_t req = 0) {
    if (on()) spans_.push_back(Span{name, start, end, parent, req});
  }

  void flush() {
    if (!on() || spans_.empty()) return;
    std::ofstream out(path_, std::ios::app);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}\n";
    }
    spans_.clear();
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start, end, parent, req;
  };
  std::string path_;
  std::vector<Span> spans_;
};

int run_vm(const Args& a);
int run_layers(const Args& a);
int run_load(const Args& a);

}  // namespace pb
