// gmg_lint v2 — repo-invariant checker (layer 3 of src/check).
//
//   gmg_lint [repo-root]     lint the tree under <root>/src
//   gmg_lint --self-test     run the built-in per-rule tests
//   gmg_lint --list-rules    print the rule registry
//
// clang-tidy enforces general C++ hygiene (.clang-tidy at the repo
// root); this tool enforces the invariants that are specific to this
// codebase and that no generic checker knows about. v2 replaces the
// v1 regex-over-lines scanner with a real C++ tokenizer (comments,
// string/char literals, and preprocessor lines are lexed away before
// any rule runs) and a rule registry where every rule has an id,
// per-rule self-tests, and suppression support. v1's rule-5 false
// negative — kernel definitions whose return type was indented or on
// its own line, and kernel-launch calls split across lines, were
// never matched by the line-anchored patterns — is gone: functions
// and their bodies are recovered from the token stream.
//
// Rules (suppress one occurrence with `// gmg-lint: allow(<id>)` on
// the offending line or the line directly above):
//
//   no-raw-omp          1. No raw `#pragma omp parallel` in src/gmg,
//                       src/dsl, src/brick, src/check, src/batch or
//                       src/amr (`omp simd` is fine): all parallelism
//                       must go through the exec:: runtime so chunk
//                       plans stay deterministic and the src/check
//                       hazard tracker sees every launch.
//   no-fma              2. No std::fma / __builtin_fma anywhere in
//                       src/: the build uses -ffp-contract=off so CA
//                       redundant ghost computation is bitwise equal
//                       to the owning rank; a hand-written fma
//                       reintroduces exactly that contraction.
//   no-nondeterminism   3. No nondeterminism sources (random_device,
//                       rand, srand, high_resolution_clock) outside
//                       src/common/rng.hpp and the trace/perf clock
//                       wrappers.
//   fp-contract         4. The top-level CMakeLists.txt must keep
//                       -ffp-contract=off.
//   kernel-scope        5. In fused-kernel files (src/ *fused*) and
//                       src/amr, every namespace-scope non-template
//                       kernel that launches a parallel loop must
//                       register its access boxes with the hazard
//                       detector (check::scope_if_enabled /
//                       KernelScope).
//   plan-bindings       6. In the schedule files of src/gmg, src/batch
//                       and src/amr (all but the kernel sources and
//                       the KernelPlan registry, kernel_plan.cpp), the
//                       per-stage kernels (smooth, smooth_residual,
//                       apply_op, the jacobi_sweep family, their
//                       varcoef twins) may only be called bare inside
//                       a run executor — a member of a class whose
//                       name ends in "Run" — or through KernelPlan
//                       bindings ('.' or '->'): a bare call in the
//                       cycle bypasses its executors and the
//                       specializer registry.
//   effect-summary      7. Every kernel in src/gmg, src/dsl,
//                       src/batch, src/amr — a namespace-scope
//                       non-template function that launches a
//                       parallel loop (parallel_for, for_each_row,
//                       for_each_plan_brick, sweep_rows, run_plan,
//                       parallel_reduce, the fused brick_pass) — must
//                       export a constexpr
//                       `<name>_effects` EffectSummary
//                       (check/effects.hpp), in the same file or its
//                       same-stem header/source sibling. The static
//                       schedule verifier proves whole-cycle hazard
//                       freedom from these summaries; a kernel
//                       without one is invisible to the proof.
//   exchange-call       8. In src/gmg, src/batch and src/amr, direct
//                       ghost-exchange engine calls
//                       (`*.exchange->exchange/begin/finish(...)`,
//                       `patch_exchange().exchange(...)`) may only
//                       appear inside the executors' exchange
//                       primitives — member functions named exchange,
//                       begin or finish — and the shared
//                       finish_exchange_overlapped. Anywhere else they
//                       bypass the cycle whose recorded schedule
//                       setup-time verification proved.
//
// Exit status 0 = clean, 1 = violations (one per line,
// `file:line: [rule] message`), 2 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Tok {
  enum Kind { kIdent, kNumber, kPunct, kPP };
  Kind kind = kPunct;
  std::string text;
  int line = 0;
};

struct TokenizedFile {
  std::vector<Tok> toks;
  /// line -> rule ids a `// gmg-lint: allow(...)` comment covers
  /// (the comment's own line and the next line).
  std::map<int, std::set<std::string>> allow;
};

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

void record_allow(TokenizedFile& tf, const std::string& comment, int line) {
  const std::string tag = "gmg-lint:";
  std::size_t pos = comment.find(tag);
  if (pos == std::string::npos) return;
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) return;
  pos += 6;
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) return;
  std::string ids = comment.substr(pos, close - pos);
  std::string id;
  const auto flush = [&] {
    while (!id.empty() && id.front() == ' ') id.erase(id.begin());
    while (!id.empty() && id.back() == ' ') id.pop_back();
    if (!id.empty()) {
      tf.allow[line].insert(id);
      tf.allow[line + 1].insert(id);
    }
    id.clear();
  };
  for (char c : ids) {
    if (c == ',')
      flush();
    else
      id.push_back(c);
  }
  flush();
}

TokenizedFile tokenize(const std::string& text) {
  TokenizedFile tf;
  int line = 1;
  std::size_t n = 0;
  const std::size_t size = text.size();
  bool at_line_start = true;
  while (n < size) {
    const char c = text[n];
    const char next = n + 1 < size ? text[n + 1] : '\0';
    if (c == '\n') {
      ++line;
      ++n;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++n;
      continue;
    }
    if (c == '/' && next == '/') {
      const std::size_t eol = text.find('\n', n);
      const std::string comment =
          text.substr(n, (eol == std::string::npos ? size : eol) - n);
      record_allow(tf, comment, line);
      n = eol == std::string::npos ? size : eol;
      continue;
    }
    if (c == '/' && next == '*') {
      const std::size_t end = text.find("*/", n + 2);
      const std::size_t stop = end == std::string::npos ? size : end + 2;
      int l = line;
      std::string comment;
      for (std::size_t i = n; i < stop; ++i) {
        if (text[i] == '\n') {
          record_allow(tf, comment, l);
          comment.clear();
          ++l;
        } else {
          comment.push_back(text[i]);
        }
      }
      record_allow(tf, comment, l);
      line = l;
      n = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++n;
      // Raw strings are not used in this tree; plain escape scanning.
      while (n < size && text[n] != quote) {
        if (text[n] == '\\') ++n;
        if (n < size && text[n] == '\n') ++line;
        ++n;
      }
      ++n;
      continue;
    }
    if (c == '#' && at_line_start) {
      // One token per preprocessor logical line (with continuations).
      std::string pp;
      const int pp_line = line;
      while (n < size && text[n] != '\n') {
        if (text[n] == '\\' && n + 1 < size && text[n + 1] == '\n') {
          pp.push_back(' ');
          n += 2;
          ++line;
          continue;
        }
        if (text[n] == '/' && n + 1 < size &&
            (text[n + 1] == '/' || text[n + 1] == '*'))
          break;
        pp.push_back(text[n]);
        ++n;
      }
      tf.toks.push_back(Tok{Tok::kPP, pp, pp_line});
      continue;
    }
    at_line_start = false;
    if (ident_start(c)) {
      std::size_t e = n;
      while (e < size && ident_char(text[e])) ++e;
      tf.toks.push_back(Tok{Tok::kIdent, text.substr(n, e - n), line});
      n = e;
      continue;
    }
    if (c >= '0' && c <= '9') {
      std::size_t e = n;
      while (e < size && (ident_char(text[e]) || text[e] == '.')) ++e;
      tf.toks.push_back(Tok{Tok::kNumber, text.substr(n, e - n), line});
      n = e;
      continue;
    }
    // Multi-char punctuators the rules care about.
    if ((c == ':' && next == ':') || (c == '-' && next == '>')) {
      tf.toks.push_back(Tok{Tok::kPunct, std::string{c, next}, line});
      n += 2;
      continue;
    }
    tf.toks.push_back(Tok{Tok::kPunct, std::string(1, c), line});
    ++n;
  }
  return tf;
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

/// A namespace-scope function definition recovered from the token
/// stream: [body_begin, body_end) indexes the tokens between the
/// function's braces.
struct FnInfo {
  std::string name;
  int line = 0;
  bool is_template = false;
  bool qualified = false;  // Class::method — a member definition
  bool anon_ns = false;    // inside an anonymous namespace
  std::string member_of;   // enclosing class, for in-class definitions
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

enum class ScopeKind { kNamespace, kAnonNamespace, kClass, kFunction, kOther };

std::size_t matching_close_brace(const std::vector<Tok>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}" && --depth == 0) return i;
  }
  return t.size();
}

std::vector<FnInfo> extract_functions(const TokenizedFile& tf) {
  const std::vector<Tok>& t = tf.toks;
  std::vector<FnInfo> fns;
  std::vector<ScopeKind> scopes;
  std::vector<std::string> classes;  // names of the open class scopes
  // Tokens since the last statement/brace delimiter at the current
  // scope — the "head" a '{' is classified by.
  std::size_t head = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Tok::kPP) {
      continue;  // does not delimit a head; #if bodies stay untouched
    }
    const bool punct = t[i].kind == Tok::kPunct;
    if (punct && (t[i].text == ";" || t[i].text == "}")) {
      if (t[i].text == "}" && !scopes.empty()) {
        if (scopes.back() == ScopeKind::kClass) classes.pop_back();
        scopes.pop_back();
      }
      head = i + 1;
      continue;
    }
    if (!punct || t[i].text != "{") continue;

    // Classify the brace by its head tokens.
    bool saw_namespace = false, saw_class = false, saw_assign = false;
    bool anon = true;
    std::size_t open_paren = t.size();
    std::string class_name;
    bool naming = false;  // between a class-key and its name
    for (std::size_t h = head; h < i; ++h) {
      if (t[h].kind == Tok::kIdent) {
        const std::string& w = t[h].text;
        if (w == "namespace") {
          saw_namespace = true;
          continue;
        }
        if (w == "class" || w == "struct" || w == "union" || w == "enum") {
          saw_class = naming = true;  // the last class-key names the body
        } else if (naming && (h + 1 == i || t[h + 1].text != "::")) {
          class_name = w;  // `class Outer::Name` -> Name
          naming = false;
        }
        if (saw_namespace) anon = false;
      } else if (t[h].kind == Tok::kPunct) {
        if (t[h].text == "=") saw_assign = true;
        if (t[h].text == "(" && open_paren == t.size()) open_paren = h;
      }
    }
    const bool at_decl_scope =
        std::all_of(scopes.begin(), scopes.end(), [](ScopeKind k) {
          return k == ScopeKind::kNamespace ||
                 k == ScopeKind::kAnonNamespace || k == ScopeKind::kClass;
        });
    if (saw_namespace) {
      scopes.push_back(anon ? ScopeKind::kAnonNamespace
                            : ScopeKind::kNamespace);
    } else if (saw_class && !saw_assign && open_paren == t.size() &&
               at_decl_scope) {
      // A class body: descend, so in-class member definitions are
      // recovered too.
      scopes.push_back(ScopeKind::kClass);
      classes.push_back(class_name);
    } else if (saw_assign || saw_class || open_paren == t.size() ||
               !at_decl_scope) {
      // Initializer list, or anything not at namespace/class scope:
      // skip the whole brace group so its internal braces (lambdas,
      // nested blocks) can't confuse scope tracking.
      const std::size_t close = matching_close_brace(t, i);
      i = close;
      head = i + 1;
      continue;
    } else {
      // A function definition: name is the identifier before the
      // first '(' of the head.
      FnInfo fn;
      if (open_paren > head && t[open_paren - 1].kind == Tok::kIdent) {
        fn.name = t[open_paren - 1].text;
        fn.line = t[open_paren - 1].line;
        fn.qualified =
            open_paren >= 2 && t[open_paren - 2].text == "::";
      }
      for (std::size_t h = head; h < open_paren; ++h)
        if (t[h].kind == Tok::kIdent && t[h].text == "template")
          fn.is_template = true;
      fn.anon_ns = std::any_of(scopes.begin(), scopes.end(), [](ScopeKind k) {
        return k == ScopeKind::kAnonNamespace;
      });
      if (!classes.empty()) fn.member_of = classes.back();
      const std::size_t close = matching_close_brace(t, i);
      fn.body_begin = i + 1;
      fn.body_end = close;
      if (!fn.name.empty()) fns.push_back(fn);
      i = close;
      head = i + 1;
      continue;
    }
    head = i + 1;
  }
  return fns;
}

bool body_has_ident(const TokenizedFile& tf, const FnInfo& fn,
                    std::initializer_list<const char*> names) {
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (tf.toks[i].kind != Tok::kIdent) continue;
    for (const char* w : names)
      if (tf.toks[i].text == w) return true;
  }
  return false;
}

constexpr const char* kLaunchTokens[] = {
    "parallel_for", "for_each_row", "for_each_plan_brick",
    "sweep_rows",   "run_plan",     "parallel_reduce"};

bool body_launches(const TokenizedFile& tf, const FnInfo& fn) {
  return body_has_ident(tf, fn,
                        {"parallel_for", "for_each_row",
                         "for_each_plan_brick", "sweep_rows", "run_plan",
                         "parallel_reduce", "brick_pass"});
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Where a file sits in the tree — derived from its generic
/// (forward-slash) path relative to the repo root, so the self-test
/// can classify synthetic paths.
struct FileClass {
  std::string rel;  // e.g. "src/gmg/solver.cpp"
  bool in_kernel_dirs = false;   // rule 1, 3 (clock)
  bool in_rng = false;           // rule 3 exemption
  bool in_clock_wrapper = false; // rule 3 exemption
  bool rule5_scope = false;      // fused files + src/amr
  bool plan_scope = false;       // rule 6: schedule files
  bool in_effect_dirs = false;   // rule 7
  bool in_exchange_dirs = false; // rule 8
};

bool starts_with(const std::string& s, const std::string& p) {
  return s.compare(0, p.size(), p) == 0;
}

FileClass classify(const std::string& rel) {
  FileClass fc;
  fc.rel = rel;
  const std::string base = rel.substr(rel.find_last_of('/') + 1);
  for (const char* d :
       {"src/gmg/", "src/dsl/", "src/brick/", "src/check/", "src/batch/",
        "src/amr/"})
    if (starts_with(rel, d)) fc.in_kernel_dirs = true;
  fc.in_rng = rel == "src/common/rng.hpp";
  fc.in_clock_wrapper = starts_with(rel, "src/trace/") ||
                        starts_with(rel, "src/perf/") ||
                        base == "timer.hpp" || base == "timer.cpp";
  fc.rule5_scope = starts_with(rel, "src/amr/") ||
                   (starts_with(rel, "src/") &&
                    base.find("fused") != std::string::npos);
  // Rule 6 covers the schedule code: everything in src/gmg, src/batch
  // and src/amr except the kernel sources and the specializer registry.
  for (const char* d : {"src/gmg/", "src/batch/", "src/amr/"}) {
    if (!starts_with(rel, d)) continue;
    fc.plan_scope = rel != "src/gmg/kernel_plan.cpp";
    for (const char* k : {"operators", "fused", "kernels", "apply_batch",
                          "stencil_rows"})
      if (base.find(k) != std::string::npos) fc.plan_scope = false;
  }
  for (const char* d : {"src/gmg/", "src/dsl/", "src/batch/", "src/amr/"})
    if (starts_with(rel, d)) fc.in_effect_dirs = true;
  for (const char* d : {"src/gmg/", "src/batch/", "src/amr/"})
    if (starts_with(rel, d)) fc.in_exchange_dirs = true;
  return fc;
}

/// Cross-file context rule 7 needs: every identifier each file
/// defines or mentions.
struct Corpus {
  std::map<std::string, TokenizedFile> files;  // rel path -> tokens

  bool mentions(const std::string& rel, const std::string& ident) const {
    auto it = files.find(rel);
    if (it == files.end()) return false;
    for (const Tok& t : it->second.toks)
      if (t.kind == Tok::kIdent && t.text == ident) return true;
    return false;
  }

  /// Same-stem siblings: foo.cpp <-> foo.hpp / foo.h (same directory).
  std::vector<std::string> siblings(const std::string& rel) const {
    const std::size_t dot = rel.find_last_of('.');
    if (dot == std::string::npos) return {};
    const std::string stem = rel.substr(0, dot);
    std::vector<std::string> out;
    for (const char* ext : {".hpp", ".h", ".cpp", ".cc"}) {
      const std::string cand = stem + ext;
      if (cand != rel && files.count(cand) != 0) out.push_back(cand);
    }
    return out;
  }
};

class Linter {
 public:
  explicit Linter(const Corpus& corpus) : corpus_(corpus) {}

  std::vector<Violation> run() {
    for (const auto& [rel, tf] : corpus_.files) lint_file(rel, tf);
    return std::move(violations_);
  }

 private:
  void report(const FileClass& fc, const TokenizedFile& tf, int line,
              const char* rule, const std::string& message) {
    auto it = tf.allow.find(line);
    if (it != tf.allow.end() && it->second.count(rule) != 0) return;
    violations_.push_back(Violation{fc.rel, line, rule, message});
  }

  void lint_file(const std::string& rel, const TokenizedFile& tf) {
    const FileClass fc = classify(rel);
    if (!starts_with(rel, "src/")) return;
    const std::vector<FnInfo> fns = extract_functions(tf);

    rule_no_raw_omp(fc, tf);
    rule_no_fma(fc, tf);
    rule_no_nondeterminism(fc, tf);
    rule_kernel_scope(fc, tf, fns);
    rule_plan_bindings(fc, tf, fns);
    rule_effect_summary(fc, tf, fns);
    rule_exchange_call(fc, tf, fns);
  }

  void rule_no_raw_omp(const FileClass& fc, const TokenizedFile& tf) {
    if (!fc.in_kernel_dirs) return;
    for (const Tok& t : tf.toks) {
      if (t.kind != Tok::kPP) continue;
      if (t.text.find("pragma") == std::string::npos ||
          t.text.find("omp") == std::string::npos)
        continue;
      if (t.text.find("simd") != std::string::npos) continue;
      report(fc, tf, t.line, "no-raw-omp",
             "raw '#pragma omp' in a deterministic-kernel directory; route "
             "parallelism through exec:: (only 'omp simd' is allowed here)");
    }
  }

  void rule_no_fma(const FileClass& fc, const TokenizedFile& tf) {
    for (const Tok& t : tf.toks) {
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "fma" || t.text == "fmaf" ||
          starts_with(t.text, "__builtin_fma")) {
        report(fc, tf, t.line, "no-fma",
               "explicit fma reintroduces the FP contraction that "
               "-ffp-contract=off disables (breaks bitwise-reproducible "
               "redundant ghost computation)");
      }
    }
  }

  void rule_no_nondeterminism(const FileClass& fc, const TokenizedFile& tf) {
    for (const Tok& t : tf.toks) {
      if (t.kind != Tok::kIdent) continue;
      if (!fc.in_rng &&
          (t.text == "random_device" || t.text == "rand" ||
           t.text == "srand")) {
        report(fc, tf, t.line, "no-nondeterminism",
               "nondeterministic RNG source; use common/rng.hpp (seeded, "
               "reproducible) instead");
      }
      if (fc.in_kernel_dirs && !fc.in_clock_wrapper &&
          t.text == "high_resolution_clock") {
        report(fc, tf, t.line, "no-nondeterminism",
               "clock read inside a kernel directory; timing belongs in "
               "src/trace / src/perf");
      }
    }
  }

  void rule_kernel_scope(const FileClass& fc, const TokenizedFile& tf,
                         const std::vector<FnInfo>& fns) {
    if (!fc.rule5_scope) return;
    for (const FnInfo& fn : fns) {
      if (fn.is_template || fn.anon_ns || !fn.member_of.empty()) continue;
      if (!body_launches(tf, fn)) continue;
      if (body_has_ident(tf, fn, {"scope_if_enabled", "KernelScope"}))
        continue;
      report(fc, tf, fn.line, "kernel-scope",
             "kernel '" + fn.name +
                 "' launches a parallel loop without declaring its access "
                 "boxes (check::scope_if_enabled / KernelScope); GMG_CHECK "
                 "cannot verify an undeclared footprint");
    }
  }

  static bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  void rule_plan_bindings(const FileClass& fc, const TokenizedFile& tf,
                          const std::vector<FnInfo>& fns) {
    if (!fc.plan_scope) return;
    static const std::set<std::string> kStage = {
        "smooth",        "smooth_residual",  "smooth_varcoef",
        "apply_op",      "apply_op_varcoef", "smooth_residual_varcoef",
        "jacobi_sweep",  "jacobi_update",    "jacobi_sweep_varcoef"};
    const std::vector<Tok>& t = tf.toks;
    for (const FnInfo& fn : fns) {
      if (ends_with(fn.member_of, "Run")) continue;  // a run executor
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (t[i].kind != Tok::kIdent || kStage.count(t[i].text) == 0)
          continue;
        if (t[i + 1].text != "(") continue;
        const bool via_member =
            i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
        if (via_member) continue;
        report(fc, tf, t[i].line, "plan-bindings",
               "bare per-stage kernel call '" + t[i].text + "' in '" +
                   fn.name +
                   "' bypasses the cycle's run executors and the KernelPlan "
                   "specializer registry; launch it through an executor");
      }
    }
  }

  void rule_effect_summary(const FileClass& fc, const TokenizedFile& tf,
                           const std::vector<FnInfo>& fns) {
    if (!fc.in_effect_dirs) return;
    for (const FnInfo& fn : fns) {
      if (fn.is_template || fn.anon_ns || fn.qualified ||
          !fn.member_of.empty())
        continue;
      if (fn.name.size() > 8 &&
          fn.name.rfind("_effects") == fn.name.size() - 8)
        continue;
      if (!body_launches(tf, fn)) continue;
      const std::string want = fn.name + "_effects";
      bool found = corpus_.mentions(fc.rel, want);
      if (!found)
        for (const std::string& sib : corpus_.siblings(fc.rel))
          if (corpus_.mentions(sib, want)) {
            found = true;
            break;
          }
      if (found) continue;
      report(fc, tf, fn.line, "effect-summary",
             "kernel '" + fn.name + "' exports no constexpr '" + want +
                 "' EffectSummary (check/effects.hpp); the schedule "
                 "verifier cannot prove launches it knows nothing about "
                 "— declare one here or in the same-stem sibling header");
    }
  }

  void rule_exchange_call(const FileClass& fc, const TokenizedFile& tf,
                          const std::vector<FnInfo>& fns) {
    if (!fc.in_exchange_dirs) return;
    const std::vector<Tok>& t = tf.toks;
    for (const FnInfo& fn : fns) {
      // The executors' exchange primitives, and the split-phase finish
      // the run executors share.
      const bool primitive =
          (!fn.member_of.empty() &&
           (fn.name == "exchange" || fn.name == "begin" ||
            fn.name == "finish")) ||
          fn.name == "finish_exchange_overlapped";
      if (primitive) continue;
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (t[i].kind != Tok::kIdent ||
            (t[i].text != "exchange" && t[i].text != "begin" &&
             t[i].text != "finish"))
          continue;
        if (t[i + 1].text != "(") continue;
        if (i == fn.body_begin ||
            (t[i - 1].text != "." && t[i - 1].text != "->"))
          continue;
        // Resolve the receiver: ident, or the call result
        // `patch_exchange()` whose callee ident we recover by
        // matching parens backwards.
        std::string recv;
        if (i >= 2) {
          const Tok& r = t[i - 2];
          if (r.kind == Tok::kIdent) {
            recv = r.text;
          } else if (r.text == ")") {
            int depth = 0;
            for (std::size_t j = i - 2; j > fn.body_begin; --j) {
              if (t[j].text == ")") ++depth;
              if (t[j].text == "(" && --depth == 0) {
                if (t[j - 1].kind == Tok::kIdent) recv = t[j - 1].text;
                break;
              }
            }
          }
        }
        if (recv.find("exchange") == std::string::npos &&
            recv.find("pexch") == std::string::npos)
          continue;
        report(fc, tf, t[i].line, "exchange-call",
               "direct ghost-exchange call '" + recv + "." + t[i].text +
                   "(...)' inside '" + fn.name +
                   "' bypasses the cycle's recorded schedule; route it "
                   "through an executor's exchange primitive (setup-time "
                   "verification proves the schedule the cycle issues)");
      }
    }
  }

  const Corpus& corpus_;
  std::vector<Violation> violations_;
};

/// Rule 4 — not token-based: the top-level CMakeLists must keep the
/// contraction flag off.
void check_fp_contract(const fs::path& root, std::vector<Violation>& out) {
  std::ifstream in(root / "CMakeLists.txt");
  if (!in.good()) {
    out.push_back(Violation{(root / "CMakeLists.txt").string(), 0,
                            "fp-contract", "cannot read top-level "
                                           "CMakeLists.txt"});
    return;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.find("-ffp-contract=off") == std::string::npos) {
    out.push_back(
        Violation{(root / "CMakeLists.txt").string(), 0, "fp-contract",
                  "-ffp-contract=off is missing; redundant ghost "
                  "computation is no longer bitwise reproducible"});
  }
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

struct SelfTest {
  const char* name;
  const char* path;  // synthetic repo-relative path
  const char* source;
  const char* expect_rule;  // nullptr = expect clean
  /// Extra sibling file the corpus should also contain.
  const char* sibling_path = nullptr;
  const char* sibling_source = nullptr;
};

const SelfTest kSelfTests[] = {
    {"raw omp flagged", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp parallel for\n}\n}\n",
     "no-raw-omp"},
    {"omp simd allowed", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp simd\n}\n}\n", nullptr},
    {"omp in comment ignored", "src/gmg/foo.cpp",
     "namespace gmg {\n// #pragma omp parallel\nvoid f() {}\n}\n", nullptr},
    {"fma flagged", "src/brick/foo.cpp",
     "namespace gmg {\nreal_t f(real_t a) { return std::fma(a, a, a); }\n}\n",
     "no-fma"},
    {"fma in string ignored", "src/brick/foo.cpp",
     "namespace gmg {\nconst char* f() { return \"use fma here\"; }\n}\n",
     nullptr},
    {"fma suppressed", "src/brick/foo.cpp",
     "namespace gmg {\n// gmg-lint: allow(no-fma)\nreal_t f(real_t a) { "
     "return std::fma(a, a, a); }\n}\n",
     nullptr},
    {"rand flagged", "src/serve/foo.cpp",
     "namespace gmg {\nint f() { return rand(); }\n}\n", "no-nondeterminism"},
    {"operand not rand", "src/serve/foo.cpp",
     "namespace gmg {\nint f(int operand) { return operand; }\n}\n", nullptr},
    // v1's rule-5 false negative: the launch literal spans lines and
    // the definition is indented / return type on its own line.
    {"multi-line launch without scope flagged", "src/gmg/my_fused.cpp",
     "namespace gmg::fused {\n  void\n  fused_pass(BrickedArray& out) {\n"
     "    exec::parallel_for(\n        plan,\n        body);\n  }\n}\n",
     "kernel-scope"},
    {"launch with KernelScope clean", "src/gmg/my_fused.cpp",
     "namespace gmg::fused {\n  void\n  fused_pass(BrickedArray& out) {\n"
     "    check::KernelScope scope(\"k\", {});\n"
     "    exec::parallel_for(\n        plan,\n        body);\n  }\n}\n"
     "namespace gmg::fused {\nconstexpr int fused_pass_effects() { return 0; "
     "}\n}\n",
     nullptr},
    {"brick_pass launch without scope flagged", "src/gmg/my_fused.cpp",
     "namespace gmg::fused {\nvoid fused_pass(BrickedArray& out) {\n"
     "  brick_pass(bd, \"k\", grid, active, row, flat, cg, rp, cp);\n}\n}\n",
     "kernel-scope"},
    {"anon-namespace helper exempt from rule 5", "src/amr/foo.cpp",
     "namespace gmg {\nnamespace {\nvoid helper() { "
     "exec::parallel_for(plan, body); }\n}\n}\n",
     nullptr},
    {"bare stage call in the cycle flagged", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Exec>\nclass Cycle {\n"
     "  void sweep(int l) {\n    apply_op(ax, x, alpha, beta, active);\n"
     "  }\n};\n}\n",
     "plan-bindings"},
    {"template parameter does not name the class", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Run>\nclass Cycle {\n"
     "  void sweep(int l) {\n    apply_op(ax, x, alpha, beta, active);\n"
     "  }\n};\n}\n",
     "plan-bindings"},
    {"bare stage call in a run executor clean", "src/gmg/solver.cpp",
     "namespace gmg {\nnamespace {\nclass SoloRun {\n public:\n"
     "  void apply(int l) { apply_op(ax, x, alpha, beta, active); }\n};\n"
     "}\n}\n",
     nullptr},
    {"bare stage call outside an executor flagged", "src/batch/foo.cpp",
     "namespace gmg::batch {\nvoid BatchedSolver::sweep(int l) {\n"
     "  jacobi_update(ax, nullptr, nullptr, x, b, w, nullptr, active);\n"
     "}\n}\n",
     "plan-bindings"},
    {"plan binding clean", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Exec>\nclass Cycle {\n"
     "  void sweep(MgLevel& lev) {\n"
     "    lev.plan.jacobi(active, false, nullptr);\n  }\n};\n}\n",
     nullptr},
    {"specializer registry clean", "src/gmg/kernel_plan.cpp",
     "namespace gmg {\nvoid resolve_level_kernels(MgLevel& lev) {\n"
     "  apply_op(out, in, a, b, active);\n}\n}\n",
     nullptr},
    {"kernel without effects flagged", "src/batch/foo_kernels.cpp",
     "namespace gmg::batch {\nvoid my_kernel(BrickedArray& out) {\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     "effect-summary"},
    {"effects in sibling header clean", "src/batch/foo_kernels.cpp",
     "namespace gmg::batch {\nvoid my_kernel(BrickedArray& out) {\n"
     "  check::KernelScope scope(\"k\", {});\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     nullptr, "src/batch/foo_kernels.hpp",
     "namespace gmg::batch {\nconstexpr check::EffectSummary "
     "my_kernel_effects() { return {}; }\n}\n"},
    {"template helper exempt from rule 7", "src/dsl/foo.hpp",
     "namespace gmg::dsl {\ntemplate <typename BD>\nvoid run_all(BD bd) {\n"
     "  for_each_plan_brick(bd);\n}\n}\n",
     nullptr},
    {"direct exchange outside an executor flagged", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid GmgSolver::sneaky(comm::Communicator& c, "
     "MgLevel& lev) {\n  lev.exchange->exchange(c, lev.x);\n}\n}\n",
     "exchange-call"},
    {"direct exchange in the cycle flagged", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Exec>\nclass Cycle {\n"
     "  void exchange_for_smooth(int l) {\n"
     "    lev(l).exchange->begin(comm, fields);\n  }\n};\n}\n",
     "exchange-call"},
    {"exchange inside an executor primitive clean", "src/gmg/foo.cpp",
     "namespace gmg {\nclass SoloRun {\n public:\n"
     "  void begin(int l, const FieldSet& fs) {\n"
     "    lev(l).exchange->begin(comm_, fields(l, fs));\n  }\n};\n}\n",
     nullptr},
    {"patch_exchange() receiver flagged", "src/amr/foo.cpp",
     "namespace gmg::amr {\nclass CompositeRun {\n"
     "  void patch_smooth(comm::Communicator& c) {\n"
     "    h_.patch_exchange().exchange(c, h_.patch().x);\n  }\n};\n}\n",
     "exchange-call"},
    {"vector begin not an exchange call", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid GmgSolver::sort_stuff(std::vector<int>& v) {\n"
     "  std::sort(v.begin(), v.end());\n}\n}\n",
     nullptr},
    {"suppressed exchange call clean", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid GmgSolver::sneaky(comm::Communicator& c, "
     "MgLevel& lev) {\n  // gmg-lint: allow(exchange-call)\n"
     "  lev.exchange->exchange(c, lev.x);\n}\n}\n",
     nullptr},
};

int run_self_tests() {
  int failures = 0;
  for (const SelfTest& st : kSelfTests) {
    Corpus corpus;
    corpus.files[st.path] = tokenize(st.source);
    if (st.sibling_path != nullptr)
      corpus.files[st.sibling_path] = tokenize(st.sibling_source);
    const std::vector<Violation> vs = Linter(corpus).run();
    bool ok;
    if (st.expect_rule == nullptr) {
      ok = vs.empty();
    } else {
      ok = std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
        return v.rule == st.expect_rule;
      });
    }
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", st.name);
      if (st.expect_rule != nullptr)
        std::fprintf(stderr, "  expected a '%s' violation, got %zu other\n",
                     st.expect_rule, vs.size());
      for (const Violation& v : vs)
        std::fprintf(stderr, "  got %s:%d: [%s] %s\n", v.file.c_str(), v.line,
                     v.rule.c_str(), v.message.c_str());
    }
  }
  const std::size_t total = sizeof(kSelfTests) / sizeof(kSelfTests[0]);
  if (failures == 0) {
    std::printf("gmg_lint: %zu self-tests passed\n", total);
    return 0;
  }
  std::fprintf(stderr, "gmg_lint: %d of %zu self-tests failed\n", failures,
               total);
  return 1;
}

bool has_extension(const fs::path& p, std::initializer_list<const char*> exts) {
  const std::string e = p.extension().string();
  for (const char* x : exts)
    if (e == x) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test")
    return run_self_tests();
  if (argc == 2 && std::string(argv[1]) == "--list-rules") {
    std::printf(
        "no-raw-omp no-fma no-nondeterminism fp-contract kernel-scope "
        "plan-bindings effect-summary exchange-call\n");
    return 0;
  }
  if (argc > 2) {
    std::fprintf(stderr,
                 "usage: gmg_lint [repo-root | --self-test | --list-rules]\n");
    return 2;
  }
  fs::path root = argc == 2 ? fs::path(argv[1]) : fs::current_path();
  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec || !fs::exists(root / "src")) {
    std::fprintf(stderr, "gmg_lint: '%s' is not the repo root (no src/)\n",
                 argc == 2 ? argv[1] : ".");
    return 2;
  }

  Corpus corpus;
  for (fs::recursive_directory_iterator it(root / "src"), end; it != end;
       ++it) {
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    if (!has_extension(p, {".hpp", ".cpp", ".h", ".cc"})) continue;
    std::ifstream in(p);
    if (!in.good()) {
      std::fprintf(stderr, "gmg_lint: cannot read %s\n", p.string().c_str());
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::string rel =
        p.lexically_relative(root).generic_string();
    corpus.files[rel] = tokenize(text);
  }

  std::vector<Violation> violations = Linter(corpus).run();
  check_fp_contract(root, violations);

  for (const Violation& v : violations)
    std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  if (!violations.empty()) {
    std::fprintf(stderr, "gmg_lint: %zu violation(s) in %zu files scanned\n",
                 violations.size(), corpus.files.size());
    return 1;
  }
  std::printf("gmg_lint: %zu files clean\n", corpus.files.size());
  return 0;
}
