// sdm_lint — a determinism-invariant linter for this repository.
//
// The serving stack's headline guarantee is bit-identical results across
// runs, byte-inert knobs, and replayable fault plans. The runtime
// oracle tests (serving_test, obs_test, fault_injection_test) catch a
// violation only AFTER someone writes wall-clock reads, ambient RNG, or
// unordered-container iteration into a report path. This tool catches those
// classes at lint time, before the oracle ever runs.
//
// Design: a hand-rolled C++ tokenizer (no external deps, C++17) feeds a
// registry of checks. Checks are token-pattern matchers plus a lightweight
// enclosing-function tracker — deliberately NOT a real parser: a linter with
// per-line suppressions can afford heuristics that a compiler cannot.
//
// Suppressions: `// sdm-lint: allow(<check>)` on the offending line, or on a
// comment line directly above it. `allow(*)` suppresses every check.
//
// The engine lints in-memory (path, content) pairs so the fixture tests in
// tests/lint_test.cpp can feed it snippets without touching the filesystem;
// the sdm_lint binary loads the real tree through LoadTree().
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace sdm_lint {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals (pp-number-ish)
    kString,  // string literal, text EXCLUDES the quotes
    kChar,    // character literal
    kPunct,   // punctuation; "::" and "->" are single tokens, rest one char
  };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;

  bool Is(Kind k, const char* t) const { return kind == k && text == t; }
  bool IsIdent(const char* t) const { return Is(Kind::kIdent, t); }
  bool IsPunct(const char* t) const { return Is(Kind::kPunct, t); }
};

// ---------------------------------------------------------------------------
// Findings and suppression
// ---------------------------------------------------------------------------

struct Finding {
  std::string check;
  std::string file;  // path as given to the engine
  int line = 0;
  std::string message;
};

/// One tokenized source file plus its suppression comments.
struct FileContext {
  std::string path;      // as given, e.g. "src/sched/batch_scheduler.cpp"
  std::string filename;  // basename, e.g. "batch_scheduler.cpp"
  std::vector<Token> tokens;
  /// line -> checks allowed on that line (from `// sdm-lint: allow(...)`).
  std::map<int, std::set<std::string>> allows;

  /// True when `check` findings on `line` are suppressed: an allow on the
  /// line itself or on the line directly above covers it.
  bool Suppressed(const std::string& check, int line) const;
};

/// Everything a project-level check can see. `files` covers src/;
/// `test_texts` holds the RAW text of tests/ sources (project checks that
/// only need "is this name mentioned in a test" don't tokenize them).
struct ProjectContext {
  std::vector<FileContext> files;
  std::map<std::string, std::string> test_texts;  // path -> raw content
};

// ---------------------------------------------------------------------------
// Check registry
// ---------------------------------------------------------------------------

class Check {
 public:
  virtual ~Check() = default;
  virtual const char* name() const = 0;
  virtual const char* description() const = 0;
  /// Per-file hook; default no-op. Append findings (suppression is applied
  /// by the engine afterwards, checks need not consult ctx.allows).
  virtual void RunFile(const FileContext& ctx, std::vector<Finding>* out) const;
  /// Whole-project hook (e.g. knob-inertness); default no-op.
  virtual void RunProject(const ProjectContext& project,
                          std::vector<Finding>* out) const;
};

/// The six shipping checks, in registration order.
std::vector<std::unique_ptr<Check>> BuildAllChecks();

// ---------------------------------------------------------------------------
// Engine entry points
// ---------------------------------------------------------------------------

/// Tokenize one source (handles comments, strings, raw strings, preprocessor
/// lines) and harvest its `sdm-lint: allow(...)` suppressions.
FileContext Tokenize(const std::string& path, const std::string& content);

struct LintInput {
  /// (path, content) pairs for the files to lint (the src/ tree).
  std::vector<std::pair<std::string, std::string>> files;
  /// (path, content) pairs for tests/ sources (project checks only).
  std::vector<std::pair<std::string, std::string>> test_texts;
};

/// Run every registered check over `input`; returns unsuppressed findings
/// sorted by (file, line, check).
std::vector<Finding> RunLint(const LintInput& input);

/// Load *.h/*.cpp under `root`/src and `root`/tests into a LintInput.
/// Returns false (with *error set) when the directories are missing.
bool LoadTree(const std::string& root, LintInput* input, std::string* error);

// ---------------------------------------------------------------------------
// Shared token utilities (used by checks and tested directly)
// ---------------------------------------------------------------------------

/// Index of the matching closer for the opener at `open` ("(", "[", "{", or
/// "<" with conservative template matching); tokens.size() when unmatched.
size_t MatchForward(const std::vector<Token>& tokens, size_t open);

/// For each token index, the qualified name of the innermost enclosing
/// function definition ("" at namespace/class scope). Heuristic: an
/// identifier (possibly `A::B` qualified) followed by a balanced parameter
/// list and then a body `{` — after skipping cv-qualifiers, noexcept,
/// trailing-return types, and constructor initializer lists — starts a
/// function scope. Control-flow keywords are excluded.
std::vector<std::string> EnclosingFunctionNames(const std::vector<Token>& tokens);

/// Identifiers declared in this file as std::unordered_{map,set,multimap,
/// multiset} (members, locals, and reference/pointer parameters alike).
std::set<std::string> UnorderedContainerNames(const std::vector<Token>& tokens);

}  // namespace sdm_lint
