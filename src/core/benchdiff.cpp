#include "core/benchdiff.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "core/report.hpp"

namespace tlbmap {

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser. Enough of RFC 8259 for
// google-benchmark output; rejects anything else with a position-tagged
// error instead of guessing.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Expected<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return fail();
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters";
      return fail();
    }
    return v;
  }

 private:
  Expected<JsonValue> fail() const {
    std::ostringstream msg;
    msg << "JSON parse error at byte " << pos_ << ": "
        << (error_.empty() ? "malformed input" : error_);
    return Error{ErrorCode::kInvalidArgument, msg.str()};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    error_ = std::string("expected '") + c + "'";
    return false;
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) {
      error_ = std::string("expected '") + lit + "'";
      return false;
    }
    pos_ += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Benchmark names are ASCII; decode BMP escapes to a single
            // byte when they fit, reject surrogate pairs.
            if (pos_ + 4 > text_.size()) {
              error_ = "truncated \\u escape";
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else {
                error_ = "bad \\u escape";
                return false;
              }
            }
            if (code > 0xFF) {
              error_ = "non-ASCII \\u escape unsupported";
              return false;
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            error_ = "bad escape";
            return false;
        }
      } else {
        out += c;
      }
    }
    error_ = "unterminated string";
    return false;
  }

  bool parse_number(double& out) {
    // google-benchmark writes a non-finite value bare, as NaN or
    // [-]Infinity: e.g. the coefficient of variation of a counter that is
    // zero in every repetition.
    const bool negative = text_.compare(pos_, 1, "-") == 0;
    const std::size_t word = pos_ + (negative ? 1 : 0);
    if (text_.compare(word, 3, "NaN") == 0) {
      pos_ = word + 3;
      out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    if (text_.compare(word, 8, "Infinity") == 0) {
      pos_ = word + 8;
      out = negative ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
      return true;
    }
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      out = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      error_ = "bad number '" + token + "'";
      return false;
    }
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of input";
      return false;
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': {
        out.kind = JsonValue::Kind::kObject;
        ++pos_;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        for (;;) {
          std::string key;
          skip_ws();
          if (!parse_string(key)) return false;
          if (!consume(':')) return false;
          JsonValue child;
          if (!parse_value(child)) return false;
          out.object.emplace(std::move(key), std::move(child));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return consume('}');
        }
      }
      case '[': {
        out.kind = JsonValue::Kind::kArray;
        ++pos_;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        for (;;) {
          JsonValue child;
          if (!parse_value(child)) return false;
          out.array.push_back(std::move(child));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return consume(']');
        }
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.str);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return parse_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return parse_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return parse_literal("null");
      default:
        out.kind = JsonValue::Kind::kNumber;
        return parse_number(out.number);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // benchmark defaults to ns when absent
}

/// Per-name min over the preferred run_type ("iteration"; aggregate-only
/// files fall back to aggregates so --benchmark_report_aggregates_only
/// baselines still diff).
std::map<std::string, BenchComparison> fold_minimums(
    const std::vector<BenchRecord>& records, bool use_cpu_time, bool as_base,
    std::map<std::string, BenchComparison> into = {}) {
  auto fold = [&](const BenchRecord& r) {
    BenchComparison& row = into[r.name];
    row.name = r.name;
    const double ns = r.time_ns(use_cpu_time);
    double& min_ns = as_base ? row.base_min_ns : row.cur_min_ns;
    int& samples = as_base ? row.base_samples : row.cur_samples;
    if (samples == 0 || ns < min_ns) min_ns = ns;
    ++samples;
  };
  bool any_iteration = false;
  for (const BenchRecord& r : records) {
    if (r.run_type == "iteration") {
      any_iteration = true;
      fold(r);
    }
  }
  if (!any_iteration) {
    for (const BenchRecord& r : records) fold(r);
  }
  return into;
}

}  // namespace

double BenchRecord::time_ns(bool use_cpu_time) const {
  return (use_cpu_time ? cpu_time : real_time) * unit_to_ns(time_unit);
}

Expected<std::vector<BenchRecord>> parse_benchmark_json(
    const std::string& text) {
  JsonParser parser(text);
  Expected<JsonValue> root = parser.parse();
  if (!root) return root.error();
  if (root->kind != JsonValue::Kind::kObject) {
    return Error{ErrorCode::kInvalidArgument,
                 "benchmark JSON: top level is not an object"};
  }
  const JsonValue* benchmarks = root->find("benchmarks");
  if (benchmarks == nullptr ||
      benchmarks->kind != JsonValue::Kind::kArray) {
    return Error{ErrorCode::kInvalidArgument,
                 "benchmark JSON: missing \"benchmarks\" array"};
  }
  std::vector<BenchRecord> records;
  records.reserve(benchmarks->array.size());
  for (const JsonValue& entry : benchmarks->array) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return Error{ErrorCode::kInvalidArgument,
                   "benchmark JSON: non-object benchmark entry"};
    }
    BenchRecord r;
    const JsonValue* name = entry.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->str.empty()) {
      return Error{ErrorCode::kInvalidArgument,
                   "benchmark JSON: benchmark entry without a name"};
    }
    r.name = name->str;
    if (const JsonValue* v = entry.find("run_type")) r.run_type = v->str;
    if (r.run_type.empty()) r.run_type = "iteration";
    if (const JsonValue* v = entry.find("real_time")) r.real_time = v->number;
    if (const JsonValue* v = entry.find("cpu_time")) r.cpu_time = v->number;
    if (const JsonValue* v = entry.find("time_unit")) r.time_unit = v->str;
    if (const JsonValue* v = entry.find("iterations")) {
      r.iterations = static_cast<std::uint64_t>(v->number);
    }
    records.push_back(std::move(r));
  }
  return records;
}

BenchDiffReport compare_benchmarks(const std::vector<BenchRecord>& baseline,
                                   const std::vector<BenchRecord>& current,
                                   const BenchDiffConfig& config) {
  std::map<std::string, BenchComparison> rows =
      fold_minimums(baseline, config.use_cpu_time, /*as_base=*/true);
  rows = fold_minimums(current, config.use_cpu_time, /*as_base=*/false,
                       std::move(rows));

  BenchDiffReport report;
  for (auto& [name, row] : rows) {
    if (row.base_samples == 0) {
      report.added.push_back(name);
      continue;
    }
    if (row.cur_samples == 0) {
      report.missing.push_back(name);
      continue;
    }
    const double delta_ns = row.cur_min_ns - row.base_min_ns;
    row.regressed = delta_ns > row.base_min_ns * config.rel_threshold &&
                    delta_ns > config.abs_floor_ns;
    row.improved = -delta_ns > row.base_min_ns * config.rel_threshold &&
                   -delta_ns > config.abs_floor_ns;
    report.has_regression = report.has_regression || row.regressed;
    report.rows.push_back(std::move(row));
  }
  if (!config.allow_missing && !report.missing.empty()) {
    report.has_regression = true;
  }
  return report;
}

std::string BenchDiffReport::render() const {
  TextTable table({"benchmark", "base min", "current min", "delta", ""});
  for (const BenchComparison& row : rows) {
    std::ostringstream delta;
    delta << (row.delta() >= 0 ? "+" : "")
          << fmt_double(row.delta() * 100.0, 2) << "%";
    table.add_row({row.name, fmt_double(row.base_min_ns, 1) + " ns",
                   fmt_double(row.cur_min_ns, 1) + " ns", delta.str(),
                   row.regressed ? "REGRESSED"
                                 : (row.improved ? "improved" : "ok")});
  }
  std::ostringstream out;
  out << table.str();
  for (const std::string& name : missing) {
    out << "MISSING: " << name << " (in baseline, not in current run)\n";
  }
  for (const std::string& name : added) {
    out << "new: " << name << " (not in baseline)\n";
  }
  out << (has_regression ? "verdict: REGRESSION\n" : "verdict: clean\n");
  return out.str();
}

namespace {

Expected<std::vector<BenchRecord>> load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error{ErrorCode::kIoError, "cannot open " + path};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Expected<std::vector<BenchRecord>> parsed =
      parse_benchmark_json(buf.str());
  if (!parsed) {
    return Error{parsed.error().code,
                 path + ": " + parsed.error().message};
  }
  return parsed;
}

}  // namespace

int run_benchdiff(int argc, const char* const* argv, std::ostream& out,
                  std::ostream& err) {
  const char* usage =
      "usage: tlbmap_benchdiff BASELINE.json CURRENT.json\n"
      "         [--threshold X]     relative slowdown gate (default 0.10)\n"
      "         [--abs-floor-ns X]  absolute slowdown gate (default 50)\n"
      "         [--real-time]       compare real_time instead of cpu_time\n"
      "         [--allow-missing]   tolerate benchmarks absent from current\n"
      "exit: 0 clean, 1 regression/missing, 2 usage or parse error\n";
  BenchDiffConfig config;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_double = [&](double& slot) {
      if (i + 1 >= argc) return false;
      try {
        std::size_t used = 0;
        const std::string v = argv[++i];
        slot = std::stod(v, &used);
        return used == v.size();
      } catch (const std::exception&) {
        return false;
      }
    };
    if (arg == "--help") {
      out << usage;
      return 0;
    } else if (arg == "--threshold") {
      if (!next_double(config.rel_threshold) || config.rel_threshold < 0) {
        err << "benchdiff: bad --threshold\n" << usage;
        return 2;
      }
    } else if (arg == "--abs-floor-ns") {
      if (!next_double(config.abs_floor_ns) || config.abs_floor_ns < 0) {
        err << "benchdiff: bad --abs-floor-ns\n" << usage;
        return 2;
      }
    } else if (arg == "--real-time") {
      config.use_cpu_time = false;
    } else if (arg == "--allow-missing") {
      config.allow_missing = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "benchdiff: unknown option " << arg << "\n" << usage;
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    err << "benchdiff: need exactly two input files\n" << usage;
    return 2;
  }
  Expected<std::vector<BenchRecord>> base = load_bench_file(files[0]);
  if (!base) {
    err << "benchdiff: " << base.error().to_string() << "\n";
    return 2;
  }
  Expected<std::vector<BenchRecord>> cur = load_bench_file(files[1]);
  if (!cur) {
    err << "benchdiff: " << cur.error().to_string() << "\n";
    return 2;
  }
  const BenchDiffReport report = compare_benchmarks(*base, *cur, config);
  out << "baseline: " << files[0] << " (" << base->size() << " records)\n"
      << "current:  " << files[1] << " (" << cur->size() << " records)\n"
      << "gate: min-of-K, +" << fmt_double(config.rel_threshold * 100.0, 1)
      << "% relative AND +" << fmt_double(config.abs_floor_ns, 1)
      << " ns absolute, " << (config.use_cpu_time ? "cpu_time" : "real_time")
      << "\n\n"
      << report.render();
  return report.has_regression ? 1 : 0;
}

}  // namespace tlbmap
