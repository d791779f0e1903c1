// The six shipping sdm_lint checks. Each encodes a real invariant of this
// repository (see lint_engine.h for the registry contract):
//
//   no-wall-clock    simulation code must read virtual time (EventLoop), not
//                    the host clock — wall-clock reads break bit-identical
//                    replay across machines and runs.
//   no-ambient-rng   all randomness flows through src/common/rng.h's seeded
//                    streams; ambient RNG breaks (plan, seed) replays.
//   ordered-exports  report/export/Summary/Json paths must not iterate
//                    unordered containers — iteration order is unspecified
//                    and differs across libstdc++/libc++, so exports would
//                    not be byte-stable cross-platform.
//   knob-inertness   every TuningConfig knob must be mentioned in tests/ —
//                    the discipline since PR 1 is that each knob has a
//                    byte-identity (or behavior) test pinning its default.
//   obs-name-prefix  metric registrations follow PR 9's source-prefixed
//                    "group/metric" scheme: a runtime source prefix plus a
//                    lowercase slash-separated literal, so hosts sharing one
//                    registry stay disjoint.
//   no-host-threads  host threads live in one audited place: the query
//                    generator's lookahead worker (src/trace/trace_gen.cpp).
//                    Anywhere else a thread would race the event loop's
//                    single-threaded state and break replay.
#include <cctype>

#include "lint/lint_engine.h"

namespace sdm_lint {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

class NoWallClockCheck : public Check {
 public:
  const char* name() const override { return "no-wall-clock"; }
  const char* description() const override {
    return "ban host-clock reads (std::chrono clocks, time(), gettimeofday) "
           "outside the wall-clock allowlist; simulation code uses virtual time";
  }

  void RunFile(const FileContext& ctx, std::vector<Finding>* out) const override {
    // bench_util.h owns the benches' wall-clock timers.
    if (ctx.filename == "bench_util.h") return;
    const auto& toks = ctx.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& id = toks[i].text;
      if (id == "system_clock" || id == "steady_clock" ||
          id == "high_resolution_clock" || id == "gettimeofday" ||
          id == "clock_gettime" || id == "timespec_get") {
        out->push_back({name(), ctx.path, toks[i].line,
                        "wall-clock read '" + id +
                            "' — simulation code must use virtual time "
                            "(EventLoop::now)"});
        continue;
      }
      // Bare calls `time(...)` / `clock(...)`: a call site has an operator or
      // delimiter before it; an identifier or '>' before it is a declaration
      // (`SimTime time()`), and '.'/'->' a member of some other type.
      if ((id == "time" || id == "clock") && i + 1 < toks.size() &&
          toks[i + 1].IsPunct("(")) {
        if (i > 0) {
          const Token& prev = toks[i - 1];
          if (prev.IsPunct(".") || prev.IsPunct("->")) continue;
          if (prev.kind == Token::Kind::kIdent || prev.IsPunct(">")) continue;
          if (prev.IsPunct("::")) {
            // std::time / ::time are the libc call; other::time is not.
            if (i >= 2 && toks[i - 2].kind == Token::Kind::kIdent &&
                toks[i - 2].text != "std") {
              continue;
            }
          }
        }
        out->push_back({name(), ctx.path, toks[i].line,
                        "wall-clock call '" + id +
                            "()' — simulation code must use virtual time "
                            "(EventLoop::now)"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-ambient-rng
// ---------------------------------------------------------------------------

class NoAmbientRngCheck : public Check {
 public:
  const char* name() const override { return "no-ambient-rng"; }
  const char* description() const override {
    return "ban std::random_device, rand()/srand(), and unseeded std::mt19937 "
           "outside src/common/rng.*; randomness flows through seeded Rng streams";
  }

  void RunFile(const FileContext& ctx, std::vector<Finding>* out) const override {
    // The seeded-stream implementation itself may touch the raw engines.
    if (PathEndsWith(ctx.path, "common/rng.h") ||
        PathEndsWith(ctx.path, "common/rng.cpp")) {
      return;
    }
    const auto& toks = ctx.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& id = toks[i].text;
      if (id == "random_device") {
        out->push_back({name(), ctx.path, toks[i].line,
                        "ambient entropy 'std::random_device' — draw from a "
                        "seeded sdm::Rng stream instead"});
        continue;
      }
      if ((id == "rand" || id == "srand") && i + 1 < toks.size() &&
          toks[i + 1].IsPunct("(")) {
        if (i > 0 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->") ||
                      toks[i - 1].kind == Token::Kind::kIdent)) {
          continue;  // member call or declaration of an unrelated `rand`
        }
        out->push_back({name(), ctx.path, toks[i].line,
                        "ambient RNG '" + id +
                            "()' — draw from a seeded sdm::Rng stream instead"});
        continue;
      }
      if (id == "mt19937" || id == "mt19937_64") {
        // Unseeded forms: `mt19937 g;`, `mt19937 g{};`, `mt19937()`,
        // `mt19937{}`. Seeded forms carry tokens inside the initializer.
        size_t j = i + 1;
        if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) ++j;
        bool unseeded = false;
        if (j >= toks.size() || toks[j].IsPunct(";") || toks[j].IsPunct(",") ||
            toks[j].IsPunct(")")) {
          unseeded = true;  // default-constructed variable / member
        } else if (toks[j].IsPunct("(") || toks[j].IsPunct("{")) {
          size_t close = MatchForward(toks, j);
          unseeded = close == j + 1;  // empty initializer
        }
        if (unseeded) {
          out->push_back({name(), ctx.path, toks[i].line,
                          "unseeded 'std::" + id +
                              "' — every engine must be seeded from the run's "
                              "Rng so replays are exact"});
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// ordered-exports
// ---------------------------------------------------------------------------

class OrderedExportsCheck : public Check {
 public:
  const char* name() const override { return "ordered-exports"; }
  const char* description() const override {
    return "flag range-for over unordered containers inside report/export/"
           "Summary/Json functions; sort keys first (or suppress a proven-"
           "order-independent fold)";
  }

  static bool IsExportFunction(const std::string& qualified_name) {
    const std::string lower = Lower(qualified_name);
    for (const char* marker : {"report", "export", "summary", "json"}) {
      if (lower.find(marker) != std::string::npos) return true;
    }
    return false;
  }

  void RunFile(const FileContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.tokens;
    const std::set<std::string> unordered = UnorderedContainerNames(toks);
    if (unordered.empty()) return;
    const std::vector<std::string> enclosing = EnclosingFunctionNames(toks);

    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks[i].IsIdent("for") || !toks[i + 1].IsPunct("(")) continue;
      size_t close = MatchForward(toks, i + 1);
      if (close == toks.size()) continue;
      // The range-for ':' sits at paren depth 1 relative to the for's '('.
      size_t colon = toks.size();
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks[j].kind != Token::Kind::kPunct) continue;
        if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{") {
          ++depth;
        } else if (toks[j].text == ")" || toks[j].text == "]" ||
                   toks[j].text == "}") {
          --depth;
        } else if (toks[j].text == ":" && depth == 1) {
          colon = j;
          break;
        } else if (toks[j].text == ";") {
          break;  // classic for loop
        }
      }
      if (colon == toks.size()) continue;
      if (!IsExportFunction(enclosing[i])) continue;
      for (size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == Token::Kind::kIdent && unordered.count(toks[j].text)) {
          out->push_back(
              {name(), ctx.path, toks[j].line,
               "range-for over unordered container '" + toks[j].text +
                   "' in export path '" + enclosing[i] +
                   "' — iteration order is unspecified and the export would "
                   "not be byte-stable; copy to a sorted vector (or std::map) "
                   "first"});
          break;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// knob-inertness
// ---------------------------------------------------------------------------

class KnobInertnessCheck : public Check {
 public:
  const char* name() const override { return "knob-inertness"; }
  const char* description() const override {
    return "every TuningConfig field in src/core/tuning.h must be mentioned "
           "in tests/ — each knob keeps a byte-identity or behavior test";
  }

  void RunProject(const ProjectContext& project,
                  std::vector<Finding>* out) const override {
    const FileContext* tuning = nullptr;
    for (const FileContext& file : project.files) {
      if (PathEndsWith(file.path, "core/tuning.h")) {
        tuning = &file;
        break;
      }
    }
    if (tuning == nullptr) return;  // fixture trees without a tuning header

    for (const auto& [field, line] : StructFields(tuning->tokens, "TuningConfig")) {
      bool mentioned = false;
      for (const auto& [path, text] : project.test_texts) {
        (void)path;
        if (MentionsWord(text, field)) {
          mentioned = true;
          break;
        }
      }
      if (!mentioned) {
        out->push_back({name(), tuning->path, line,
                        "TuningConfig knob '" + field +
                            "' is never mentioned in tests/ — add a test "
                            "pinning its default-off byte-identity or its "
                            "behavior when set"});
      }
    }
  }

  /// Data members of `struct <which> { ... }`: (name, line) pairs. Member
  /// functions, nested bodies, using/enum/static declarations are skipped.
  static std::vector<std::pair<std::string, int>> StructFields(
      const std::vector<Token>& toks, const std::string& which) {
    std::vector<std::pair<std::string, int>> fields;
    size_t body = toks.size();
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].IsIdent("struct") && toks[i + 1].IsIdent(which.c_str()) &&
          toks[i + 2].IsPunct("{")) {
        body = i + 2;
        break;
      }
    }
    if (body == toks.size()) return fields;
    size_t end = MatchForward(toks, body);
    if (end == toks.size()) return fields;

    size_t i = body + 1;
    while (i < end) {
      // One "statement" at struct depth; nested braces are skipped whole.
      size_t stmt_begin = i;
      bool has_paren_before_init = false;
      bool skip = false;
      std::string last_ident;
      int last_ident_line = 0;
      while (i < end) {
        const Token& t = toks[i];
        if (t.kind == Token::Kind::kIdent) {
          if (i == stmt_begin &&
              (t.text == "using" || t.text == "enum" || t.text == "friend" ||
               t.text == "static" || t.text == "template" || t.text == "typedef" ||
               t.text == "struct" || t.text == "class" || t.text == "public" ||
               t.text == "private" || t.text == "protected")) {
            skip = true;
          }
          last_ident = t.text;
          last_ident_line = t.line;
          ++i;
          continue;
        }
        if (t.IsPunct("[")) {  // attributes like [[nodiscard]]
          size_t close = MatchForward(toks, i);
          i = close == toks.size() ? i + 1 : close + 1;
          stmt_begin = i;  // let the statement-head keyword test re-run
          continue;
        }
        if (t.IsPunct("<")) {  // template args in the member's type
          size_t close = MatchForward(toks, i);
          if (close != toks.size() && close < end) {
            i = close + 1;
            last_ident.clear();  // the type, not the member name
            continue;
          }
          ++i;
          continue;
        }
        if (t.IsPunct("(")) {
          has_paren_before_init = true;
          size_t close = MatchForward(toks, i);
          i = close == toks.size() ? i + 1 : close + 1;
          continue;
        }
        if (t.IsPunct("=")) {
          // Default initializer: the member name is the identifier before it.
          if (!skip && !has_paren_before_init && !last_ident.empty()) {
            fields.emplace_back(last_ident, last_ident_line);
          }
          skip = true;  // consume the rest of the statement
          ++i;
          continue;
        }
        if (t.IsPunct("{")) {
          // Either a brace initializer (member) or a function body (skip).
          if (!skip && !has_paren_before_init && !last_ident.empty()) {
            fields.emplace_back(last_ident, last_ident_line);
          }
          size_t close = MatchForward(toks, i);
          i = close == toks.size() ? i + 1 : close + 1;
          skip = true;
          // A function body ends the statement without a ';'.
          if (i < end && !toks[i].IsPunct(";")) break;
          continue;
        }
        if (t.IsPunct(";")) {
          if (!skip && !has_paren_before_init && !last_ident.empty()) {
            fields.emplace_back(last_ident, last_ident_line);
          }
          ++i;
          break;
        }
        ++i;
      }
      if (i == stmt_begin) ++i;  // safety against non-advancing statements
    }
    return fields;
  }

  static bool MentionsWord(const std::string& text, const std::string& word) {
    size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
      const bool left_ok =
          pos == 0 || (!std::isalnum(static_cast<unsigned char>(text[pos - 1])) &&
                       text[pos - 1] != '_');
      const size_t after = pos + word.size();
      const bool right_ok =
          after >= text.size() ||
          (!std::isalnum(static_cast<unsigned char>(text[after])) &&
           text[after] != '_');
      if (left_ok && right_ok) return true;
      pos += word.size();
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// obs-name-prefix
// ---------------------------------------------------------------------------

class ObsNamePrefixCheck : public Check {
 public:
  const char* name() const override { return "obs-name-prefix"; }
  const char* description() const override {
    return "ObsCounter/ObsGauge/ObsHist registrations must be `prefix + "
           "\"group/metric\"`: a runtime source prefix plus a lowercase "
           "slash-separated literal (PR 9 naming scheme)";
  }

  static bool ValidMetricLiteral(const std::string& s) {
    if (s.empty() || s.front() == '/' || s.back() == '/') return false;
    bool has_slash = false;
    for (char c : s) {
      if (c == '/') {
        has_slash = true;
        continue;
      }
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
        return false;
      }
    }
    if (!has_slash) return false;
    return s.find("//") == std::string::npos;
  }

  void RunFile(const FileContext& ctx, std::vector<Finding>* out) const override {
    // src/obs defines the handle types; registrations live at the call sites.
    if (ctx.path.find("obs/") != std::string::npos) return;
    const auto& toks = ctx.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& id = toks[i].text;
      if (id != "ObsCounter" && id != "ObsGauge" && id != "ObsHist") continue;
      if (!toks[i + 1].IsPunct("(")) continue;
      size_t close = MatchForward(toks, i + 1);
      if (close == toks.size()) continue;

      // Split the arguments at top-level commas; registration calls are
      // (observability, name-expression).
      std::vector<std::pair<size_t, size_t>> args;  // [begin, end) token ranges
      int depth = 0;
      size_t arg_begin = i + 2;
      for (size_t j = i + 2; j < close; ++j) {
        const Token& t = toks[j];
        if (t.kind == Token::Kind::kPunct) {
          if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
          if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
          if (t.text == "," && depth == 0) {
            args.emplace_back(arg_begin, j);
            arg_begin = j + 1;
          }
        }
      }
      args.emplace_back(arg_begin, close);
      if (args.size() != 2) continue;  // declaration or unrelated overload

      const auto [nb, ne] = args[1];
      const Token* last_literal = nullptr;
      bool has_prefix_expr = false;
      for (size_t j = nb; j < ne; ++j) {
        if (toks[j].kind == Token::Kind::kString) last_literal = &toks[j];
        if (toks[j].kind == Token::Kind::kIdent) has_prefix_expr = true;
      }
      if (last_literal == nullptr) continue;  // fully dynamic name: can't check
      if (!ValidMetricLiteral(last_literal->text)) {
        out->push_back({name(), ctx.path, last_literal->line,
                        "metric literal \"" + last_literal->text +
                            "\" does not match the `group/metric` scheme "
                            "(lowercase [a-z0-9_] segments joined by '/')"});
      }
      if (!has_prefix_expr) {
        out->push_back({name(), ctx.path, last_literal->line,
                        "metric registered without a runtime source prefix — "
                        "write `prefix + \"" + last_literal->text +
                            "\"` so hosts sharing one registry stay "
                            "disjoint"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// no-host-threads
// ---------------------------------------------------------------------------

class NoHostThreadsCheck : public Check {
 public:
  const char* name() const override { return "no-host-threads"; }
  const char* description() const override {
    return "ban std::thread, std::jthread, std::async and pthread_create "
           "outside src/trace/trace_gen.cpp, the one audited worker thread";
  }

  void RunFile(const FileContext& ctx, std::vector<Finding>* out) const override {
    if (PathEndsWith(ctx.path, "src/trace/trace_gen.cpp")) return;
    const auto& toks = ctx.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& id = toks[i].text;
      const bool std_member = i >= 2 && toks[i - 1].IsPunct("::") && toks[i - 2].IsIdent("std");
      if (id == "pthread_create" ||
          (std_member && (id == "thread" || id == "jthread" || id == "async"))) {
        const std::string what = id == "pthread_create" ? id : "std::" + id;
        out->push_back({name(), ctx.path, toks[i].line,
                        "host thread '" + what +
                            "' — simulation state is single-threaded; only "
                            "the query generator's lookahead "
                            "(src/trace/trace_gen.cpp) may start a thread"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Check>> BuildAllChecks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(std::make_unique<NoWallClockCheck>());
  checks.push_back(std::make_unique<NoAmbientRngCheck>());
  checks.push_back(std::make_unique<OrderedExportsCheck>());
  checks.push_back(std::make_unique<KnobInertnessCheck>());
  checks.push_back(std::make_unique<ObsNamePrefixCheck>());
  checks.push_back(std::make_unique<NoHostThreadsCheck>());
  return checks;
}

}  // namespace sdm_lint
