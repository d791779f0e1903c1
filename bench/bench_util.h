// Shared helpers for the paper-reproduction benches: aligned table printing
// and standard scaled host/model setups. Every bench prints the paper's
// rows/series followed by a "paper vs measured" note where applicable.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "serving/cluster.h"

namespace sdm::bench {

/// Fixed-width table printer: Row("a", "b", ...) then Print().
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  template <typename... Ts>
  void Row(Ts&&... cells) {
    rows_.push_back({ToCell(std::forward<Ts>(cells))...});
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    PrintRow(headers_, widths);
    std::string sep;
    for (size_t c = 0; c < widths.size(); ++c) {
      sep += std::string(widths[c] + 2, '-');
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
  }

 private:
  static std::string ToCell(const char* s) { return s; }
  static std::string ToCell(std::string s) { return s; }
  static std::string ToCell(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
  }
  static std::string ToCell(int v) { return std::to_string(v); }
  static std::string ToCell(uint64_t v) { return std::to_string(v); }

  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<size_t>& widths) {
    std::string line;
    for (size_t c = 0; c < cells.size() && c < widths.size(); ++c) {
      line += cells[c];
      line += std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void Note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

inline std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Quiet logging for benches.
struct QuietLogs {
  QuietLogs() { SetLogLevel(LogLevel::kWarn); }
};

/// Machine-readable bench output for the BENCH_*.json perf trajectory.
///
/// Construct from main's argc/argv; `--json=FILE` enables it. Metrics
/// accumulate and are written to FILE as one JSON object on Flush() or
/// destruction:
///
///   {"bench": "coalescing", "metrics": {"device_reads": 123, ...}}
///
/// Without the flag every call is a no-op, so benches can report
/// unconditionally and keep their human-readable tables on stdout. A bare
/// `--json` (which would mix the object into those tables) and a FILE that
/// cannot be opened for writing both exit with status 2 before the bench
/// runs.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        std::fprintf(stderr, "usage: %s [--json=FILE]\n", argv[0]);
        std::exit(2);
      }
      if (arg.rfind("--json=", 0) == 0) {
        const std::string path = arg.substr(7);
        file_ = std::fopen(path.c_str(), "w");
        if (file_ == nullptr) {
          std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
          std::exit(2);
        }
      }
    }
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { Flush(); }

  void Metric(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(name, buf);
  }
  void Metric(const std::string& name, uint64_t value) {
    fields_.emplace_back(name, std::to_string(value));
  }
  void Metric(const std::string& name, int value) {
    fields_.emplace_back(name, std::to_string(value));
  }

  void Flush() {
    if (file_ == nullptr) return;
    std::string out = "{\"bench\": \"" + bench_name_ + "\", \"metrics\": {";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}}\n";
    std::fputs(out.c_str(), file_);
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  std::string bench_name_;
  std::FILE* file_ = nullptr;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace sdm::bench
