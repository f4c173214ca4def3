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
// per-rule self-tests, and suppression support. v1's false negative —
// kernel definitions whose return type was indented or on its own
// line, and kernel-launch calls split across lines, were never matched
// by the line-anchored patterns — is gone: functions and their bodies
// are recovered from the token stream.
//
// Rules (suppress one occurrence with `// gmg-lint: allow(<id>)` on
// the offending line or the line directly above):
//
//   no-raw-omp          1. No `#pragma omp` other than `omp simd`
//                       anywhere in src/: all parallelism goes through
//                       the exec:: runtime, so chunk plans stay
//                       deterministic, the src/check hazard tracker
//                       sees every launch, and no OpenMP runtime is
//                       linked (the build passes -fopenmp-simd only).
//   no-fma              2. No std::fma / __builtin_fma, and no x86
//                       FMA intrinsic (_mm*_fmadd/fmsub/fnmadd/fnmsub
//                       families, __builtin_ia32_vfmadd* and kin),
//                       anywhere in src/: the build uses
//                       -ffp-contract=off so CA redundant ghost
//                       computation is bitwise equal to the owning
//                       rank; a hand-written fma reintroduces exactly
//                       that contraction.
//   no-nondeterminism   3. No nondeterminism sources: random_device,
//                       rand and srand only in src/common/rng.hpp,
//                       and no high_resolution_clock read in src/gmg,
//                       src/dsl, src/brick, src/check, src/batch or
//                       src/amr (kernel timing is a trace span).
//   fp-contract         4. The top-level CMakeLists.txt must keep
//                       -ffp-contract=off.
//   effect-scope        5. Every kernel in src/gmg, src/dsl,
//                       src/batch, src/amr — a namespace-scope
//                       function (a non-template function, or a
//                       function template defined in a .cpp — one
//                       kernel set explicitly instantiated per field
//                       type) that launches a parallel loop
//                       (parallel_for, for_each_row,
//                       for_each_plan_brick, sweep_rows, run_plan,
//                       parallel_reduce_*, the fused brick_pass and
//                       dsl_sweep) —
//                       must open its GMG_CHECK scope from its own
//                       constexpr EffectSummary:
//                       `check::scope(<name>_effects(...), ...)`. The
//                       summary is the kernel's one declaration of its
//                       accesses (check/effects.hpp): the scope and
//                       the recorded schedule step both derive from
//                       it, so the call cannot compile without it.
//                       And nothing in src/ outside src/check may name
//                       KernelScope, scope_if_enabled, read_access or
//                       write_access: a hand-written scope or a
//                       hand-listed recorder access is a second
//                       declaration that can drift from the summary.
//   plan-bindings       6. In the schedule files of src/gmg, src/batch
//                       and src/amr (all but the kernel sources and
//                       the KernelPlan registry, kernel_plan.cpp, where
//                       the kernel choice is made), the per-stage
//                       kernels (smooth, smooth_residual, apply_op, the
//                       7- and 13-point jacobi_sweep, their varcoef
//                       twins, and the level_apply / level_jacobi
//                       dispatchers) may only be called inside a run
//                       executor — a member of a class whose name ends
//                       in "Run": a call in the cycle bypasses its
//                       executors and the specializer registry.
//   exchange-call       7. In src/gmg, src/batch and src/amr, direct
//                       ghost-exchange engine calls
//                       (`*.exchange->exchange(...)`,
//                       `patch_exchange().exchange(...)`) may only
//                       appear inside the executors' exchange
//                       primitives — member functions named exchange.
//                       Anywhere else they bypass the cycle whose
//                       recorded schedule setup-time verification
//                       proved.
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
      if (t[h].kind == Tok::kIdent && t[h].text == "template" &&
          h + 1 < i && t[h + 1].text == "<") {
        // A template parameter list: its `class`/`typename` keys name
        // no class body.
        int depth = 0;
        for (++h; h < i; ++h) {
          if (t[h].text == "<") ++depth;
          if (t[h].text == ">" && --depth == 0) break;
        }
        continue;
      }
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

bool body_launches(const TokenizedFile& tf, const FnInfo& fn) {
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Tok& t = tf.toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (t.text.rfind("parallel_reduce", 0) == 0) return true;
    for (const char* w : {"parallel_for", "for_each_row", "for_each_plan_brick",
                          "sweep_rows", "run_plan", "brick_pass", "dsl_sweep"})
      if (t.text == w) return true;
  }
  return false;
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
  bool in_kernel_dirs = false;   // rule 3 (clock)
  bool in_rng = false;           // rule 3 exemption
  bool in_effect_dirs = false;   // rule 5: kernels
  bool in_check = false;         // rule 5: the one home of scopes
  bool plan_scope = false;       // rule 6: schedule files
  bool in_exchange_dirs = false; // rule 7
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
  fc.in_check = starts_with(rel, "src/check/");
  // Rule 6 covers the schedule code: everything in src/gmg, src/batch
  // and src/amr except the kernel sources and the specializer registry.
  for (const char* d : {"src/gmg/", "src/batch/", "src/amr/"}) {
    if (!starts_with(rel, d)) continue;
    fc.plan_scope = rel != "src/gmg/kernel_plan.cpp";
    for (const char* k : {"operators", "fused", "kernels", "stencil_rows"})
      if (base.find(k) != std::string::npos) fc.plan_scope = false;
  }
  for (const char* d : {"src/gmg/", "src/dsl/", "src/batch/", "src/amr/"})
    if (starts_with(rel, d)) fc.in_effect_dirs = true;
  for (const char* d : {"src/gmg/", "src/batch/", "src/amr/"})
    if (starts_with(rel, d)) fc.in_exchange_dirs = true;
  return fc;
}

/// Every tokenized file of the tree, by repo-relative path.
struct Corpus {
  std::map<std::string, TokenizedFile> files;
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
    rule_effect_scope(fc, tf, fns);
    rule_plan_bindings(fc, tf, fns);
    rule_exchange_call(fc, tf, fns);
  }

  /// The words of a preprocessor line, '#' dropped: "#pragma omp simd"
  /// is {"pragma", "omp", "simd"}.
  static std::vector<std::string> pp_words(const std::string& pp) {
    std::vector<std::string> words;
    std::string w;
    for (const char ch : pp + " ") {
      if (ch == '#' || ch == ' ' || ch == '\t') {
        if (!w.empty()) words.push_back(w);
        w.clear();
      } else {
        w.push_back(ch);
      }
    }
    return words;
  }

  void rule_no_raw_omp(const FileClass& fc, const TokenizedFile& tf) {
    for (const Tok& t : tf.toks) {
      if (t.kind != Tok::kPP) continue;
      const std::vector<std::string> w = pp_words(t.text);
      if (w.size() < 2 || w[0] != "pragma" || w[1] != "omp") continue;
      if (w.size() > 2 && w[2] == "simd") continue;
      report(fc, tf, t.line, "no-raw-omp",
             "'#pragma omp' other than 'omp simd'; route parallelism "
             "through exec:: (the build links no OpenMP runtime)");
    }
  }

  /// A fused multiply-add by name: the libm functions and builtins,
  /// and the x86 intrinsics and ia32 builtins of every FMA family
  /// (including the mask, maskz, round and addsub/subadd variants).
  static bool is_fma_call(const std::string& id) {
    const auto has = [&](const char* part) {
      return id.find(part) != std::string::npos;
    };
    if (id == "fma" || id == "fmaf" || id == "fmal" ||
        starts_with(id, "__builtin_fma"))
      return true;
    if (starts_with(id, "_mm"))
      return has("_fmadd") || has("_fmsub") || has("_fnmadd") ||
             has("_fnmsub");
    return starts_with(id, "__builtin_ia32_vf") && (has("madd") || has("msub"));
  }

  void rule_no_fma(const FileClass& fc, const TokenizedFile& tf) {
    for (const Tok& t : tf.toks) {
      if (t.kind != Tok::kIdent) continue;
      if (is_fma_call(t.text)) {
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
      if (fc.in_kernel_dirs && t.text == "high_resolution_clock") {
        report(fc, tf, t.line, "no-nondeterminism",
               "clock read inside a kernel directory; time it with a "
               "src/trace span");
      }
    }
  }

  /// A function template defined in a .cpp is explicitly instantiated
  /// there — a kernel like any other; header templates are helpers.
  static bool header_template(const FileClass& fc, const FnInfo& fn) {
    return fn.is_template && !ends_with(fc.rel, ".cpp");
  }

  /// Whether the body opens `check::scope(<want>(...), ...)`: the
  /// first argument of a `scope(` call names the summary function
  /// (qualifiers like `fused::` allowed).
  static bool opens_scope_from(const TokenizedFile& tf, const FnInfo& fn,
                               const std::string& want) {
    const std::vector<Tok>& t = tf.toks;
    for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (t[i].kind != Tok::kIdent || t[i].text != "scope" ||
          t[i + 1].text != "(")
        continue;
      std::size_t j = i + 2;
      while (j + 2 < fn.body_end && t[j].kind == Tok::kIdent &&
             t[j + 1].text == "::")
        j += 2;
      if (t[j].kind == Tok::kIdent && t[j].text == want &&
          t[j + 1].text == "(")
        return true;
    }
    return false;
  }

  void rule_effect_scope(const FileClass& fc, const TokenizedFile& tf,
                         const std::vector<FnInfo>& fns) {
    if (!fc.in_check) {
      for (const Tok& t : tf.toks) {
        if (t.kind != Tok::kIdent) continue;
        if (t.text != "KernelScope" && t.text != "scope_if_enabled" &&
            t.text != "read_access" && t.text != "write_access")
          continue;
        report(fc, tf, t.line, "effect-scope",
               "'" + t.text +
                   "' outside src/check: a hand-written scope or recorder "
                   "access restates what the kernel's EffectSummary "
                   "declares; derive it with check::scope / "
                   "ScheduleRecorder::launch from the summary instead");
      }
    }
    if (!fc.in_effect_dirs) return;
    for (const FnInfo& fn : fns) {
      if (header_template(fc, fn) || fn.anon_ns || fn.qualified ||
          !fn.member_of.empty())
        continue;
      if (!body_launches(tf, fn)) continue;
      const std::string want = fn.name + "_effects";
      if (opens_scope_from(tf, fn, want)) continue;
      report(fc, tf, fn.line, "effect-scope",
             "kernel '" + fn.name + "' launches a parallel loop without "
                 "opening its scope from its own summary: call "
                 "check::scope(" + want + "(...), box, {bindings}) — the "
                 "constexpr EffectSummary is the one declaration GMG_CHECK "
                 "and the schedule proof both derive from");
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
        "smooth",       "smooth_residual",     "smooth_varcoef",
        "apply_op",     "apply_op_varcoef",    "smooth_residual_varcoef",
        "jacobi_sweep", "jacobi_sweep_star13", "jacobi_sweep_varcoef",
        "level_apply",  "level_jacobi"};
    const std::vector<Tok>& t = tf.toks;
    for (const FnInfo& fn : fns) {
      if (ends_with(fn.member_of, "Run")) continue;  // a run executor
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (t[i].kind != Tok::kIdent || kStage.count(t[i].text) == 0)
          continue;
        if (t[i + 1].text != "(" && t[i + 1].text != "<") continue;
        report(fc, tf, t[i].line, "plan-bindings",
               "per-stage kernel call '" + t[i].text + "' in '" + fn.name +
                   "' bypasses the cycle's run executors and the KernelPlan "
                   "specializer registry; launch it through an executor");
      }
    }
  }

  void rule_exchange_call(const FileClass& fc, const TokenizedFile& tf,
                          const std::vector<FnInfo>& fns) {
    if (!fc.in_exchange_dirs) return;
    const std::vector<Tok>& t = tf.toks;
    for (const FnInfo& fn : fns) {
      // The executors' exchange primitives.
      if (!fn.member_of.empty() && fn.name == "exchange") continue;
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
        if (t[i].kind != Tok::kIdent || t[i].text != "exchange") continue;
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
};

const SelfTest kSelfTests[] = {
    {"raw omp flagged", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp parallel for\n}\n}\n",
     "no-raw-omp"},
    {"omp simd allowed", "src/gmg/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp simd\n}\n}\n", nullptr},
    {"omp in comment ignored", "src/gmg/foo.cpp",
     "namespace gmg {\n// #pragma omp parallel\nvoid f() {}\n}\n", nullptr},
    {"raw omp outside the kernel directories flagged", "src/baseline/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp parallel for\n}\n}\n",
     "no-raw-omp"},
    {"omp simd outside the kernel directories clean", "src/baseline/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp simd\n}\n}\n", nullptr},
    {"omp parallel for simd flagged", "src/baseline/foo.cpp",
     "namespace gmg {\nvoid f() {\n#pragma omp parallel for simd\n}\n}\n",
     "no-raw-omp"},
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
    {"fma intrinsic flagged", "src/gmg/foo.cpp",
     "namespace gmg {\n__m512d f(__m512d a) { return _mm512_fmadd_pd(a, a, "
     "a); }\n}\n",
     "no-fma"},
    {"ia32 fma builtin flagged", "src/gmg/foo.cpp",
     "namespace gmg {\nV f(V a) { return __builtin_ia32_vfmaddpd256(a, a, "
     "a); }\n}\n",
     "no-fma"},
    {"vector-extension multiply-add clean", "src/gmg/foo.cpp",
     "namespace gmg {\ntypedef double V __attribute__((vector_size(64)));\n"
     "void f(V& o, const V& va, const V& vb, double c, double s) {\n"
     "  o = va * c + vb * s;\n}\n}\n",
     nullptr},
    {"rand flagged", "src/serve/foo.cpp",
     "namespace gmg {\nint f() { return rand(); }\n}\n", "no-nondeterminism"},
    {"operand not rand", "src/serve/foo.cpp",
     "namespace gmg {\nint f(int operand) { return operand; }\n}\n", nullptr},
    {"clock read in a kernel directory flagged", "src/gmg/foo.cpp",
     "namespace gmg {\nauto f() {\n"
     "  return std::chrono::high_resolution_clock::now();\n}\n}\n",
     "no-nondeterminism"},
    {"clock read outside the kernel directories clean", "src/perf/foo.cpp",
     "namespace gmg {\nauto f() {\n"
     "  return std::chrono::high_resolution_clock::now();\n}\n}\n",
     nullptr},
    // v1's false negative: the launch literal spans lines and the
    // definition is indented / return type on its own line.
    {"multi-line launch without scope flagged", "src/gmg/my_fused.cpp",
     "namespace gmg::fused {\n  void\n  fused_pass(BrickedArray& out) {\n"
     "    exec::parallel_for(\n        plan,\n        body);\n  }\n}\n",
     "effect-scope"},
    {"derived scope clean", "src/gmg/foo_ops.cpp",
     "namespace gmg {\nvoid my_kernel(BrickedArray& y, const Box& active) {\n"
     "  const auto scope = check::scope(my_kernel_effects(), active,\n"
     "                                  {check::bind(\"y\", y)});\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     nullptr},
    {"derived scope from a qualified summary clean", "src/gmg/foo_fused.cpp",
     "namespace gmg::fused {\ntemplate <class F>\nvoid fused_pass(F& out) {\n"
     "  const auto scope = check::scope(fused::fused_pass_effects(), a, "
     "{});\n"
     "  brick_pass(bd, k, \"k\", grid, active, row, flat, cg, rp, cp);\n"
     "}\n}\n",
     nullptr},
    {"hand-written scope flagged", "src/gmg/foo_ops.cpp",
     "namespace gmg {\nvoid my_kernel(BrickedArray& y, const Box& active) {\n"
     "  const auto s = check::scope(my_kernel_effects(), active, {});\n"
     "  check::KernelScope scope(\"k\", {check::access(y, active)}, {});\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     "effect-scope"},
    {"scope from another kernel's summary flagged", "src/gmg/foo_ops.cpp",
     "namespace gmg {\nvoid residual(BrickedArray& r, const Box& active) {\n"
     "  const auto scope = check::scope(smooth_effects(), active,\n"
     "                                  {check::bind(\"x\", r)});\n"
     "  for_each_row(bd, k, \"k\", grid, active, body);\n}\n}\n",
     "effect-scope"},
    {"hand-listed recorder access flagged", "src/gmg/schedule_audit.cpp",
     "namespace gmg {\nvoid Record::residual(int l, const Box& box) {\n"
     "  launch(residual_effects(), l, box, {{\"r\", \"r\"}})\n"
     "      .accesses.push_back(check::write_access(\"r\", l, box, "
     "\"r\"));\n}\n}\n",
     "effect-scope"},
    {"scope helpers allowed in src/check", "src/check/shadow.cpp",
     "namespace gmg::check {\nKernelScope make() { return KernelScope(); "
     "}\n}\n",
     nullptr},
    {"brick_pass launch without scope flagged", "src/gmg/my_fused.cpp",
     "namespace gmg::fused {\nvoid fused_pass(BrickedArray& out) {\n"
     "  brick_pass(bd, \"k\", grid, active, row, flat, cg, rp, cp);\n}\n}\n",
     "effect-scope"},
    {"reduction kernel without scope flagged", "src/gmg/foo_ops.cpp",
     "namespace gmg {\ntemplate <class F>\nreal_t my_norm(const F& a) {\n"
     "  return exec::parallel_reduce_max<real_t>(\"k\", n, g, body);\n}\n}\n",
     "effect-scope"},
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
     "  jacobi_sweep_star13(ax, nullptr, nullptr, x, b, a, b1, b2, g, box);\n"
     "}\n}\n",
     "plan-bindings"},
    {"executor call in the cycle clean", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Exec>\nclass Cycle {\n"
     "  void sweep(int l) {\n"
     "    ex_.jacobi(l, active, false);\n  }\n};\n}\n",
     nullptr},
    {"level dispatcher in the cycle flagged", "src/gmg/cycle.hpp",
     "namespace gmg {\ntemplate <class Exec>\nclass Cycle {\n"
     "  void sweep(const MgLevel& lev) {\n"
     "    level_jacobi(lev, ax, nullptr, nullptr, x, b, active);\n"
     "  }\n};\n}\n",
     "plan-bindings"},
    {"member-call stage kernel flagged", "src/batch/foo.cpp",
     "namespace gmg::batch {\nvoid BatchedSolver::sweep(Plan& plan) {\n"
     "  plan.apply_op(ax, x, alpha, beta, active);\n}\n}\n",
     "plan-bindings"},
    {"dispatcher in a run executor clean", "src/amr/foo.cpp",
     "namespace gmg::amr {\nclass CompositeRun {\n"
     "  void patch_sweep() {\n"
     "    level_jacobi(P_, P_.Ax, nullptr, nullptr, P_.x, P_.b, in);\n"
     "  }\n};\n}\n",
     nullptr},
    {"specializer registry clean", "src/gmg/kernel_plan.cpp",
     "namespace gmg {\nvoid resolve_level_kernels(MgLevel& lev) {\n"
     "  apply_op(out, in, a, b, active);\n}\n}\n",
     nullptr},
    {"kernel template in a .cpp without a scope flagged",
     "src/gmg/foo_ops.cpp",
     "namespace gmg {\ntemplate <class F>\nvoid my_kernel(F& out) {\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     "effect-scope"},
    {"kernel without a scope flagged", "src/batch/foo_kernels.cpp",
     "namespace gmg::batch {\nvoid my_kernel(BrickedArray& out) {\n"
     "  exec::parallel_for(plan, body);\n}\n}\n",
     "effect-scope"},
    {"template helper exempt from rule 5", "src/dsl/foo.hpp",
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
     "    lev(l).exchange->exchange(comm, fields);\n  }\n};\n}\n",
     "exchange-call"},
    {"exchange inside an executor primitive clean", "src/gmg/foo.cpp",
     "namespace gmg {\nclass SoloRun {\n public:\n"
     "  void exchange(int l, const FieldSet& fs) {\n"
     "    lev(l).exchange->exchange(comm_, fields(l, fs));\n  }\n};\n}\n",
     nullptr},
    {"patch_exchange() receiver flagged", "src/amr/foo.cpp",
     "namespace gmg::amr {\nclass CompositeRun {\n"
     "  void patch_smooth(comm::Communicator& c) {\n"
     "    h_.patch_exchange().exchange(c, h_.patch().x);\n  }\n};\n}\n",
     "exchange-call"},
    {"std::exchange not an exchange call", "src/gmg/foo.cpp",
     "namespace gmg {\nint GmgSolver::take(int& v) {\n"
     "  return std::exchange(v, 0);\n}\n}\n",
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
        "no-raw-omp no-fma no-nondeterminism fp-contract effect-scope "
        "plan-bindings exchange-call\n");
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
