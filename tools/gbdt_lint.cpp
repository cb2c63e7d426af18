// In-tree convention linter for the simulated-GPU codebase.
//
// Scans every .h/.cpp under the given directories (default: src/) and
// enforces the kernel and memory conventions the access auditor relies on:
//
//   1. Headers use `#pragma once`.
//   2. No raw `new` / `delete` / `malloc` / `free` in src/ — device memory
//      goes through DeviceAllocator, host memory through containers.
//      (`= delete`d functions and the DeviceBuffer::free() member are fine.)
//   3. `run_chunks` is called only by the Device launch wrapper — kernels
//      must go through the labeled `dev.launch(...)` path so the auditor
//      and the timeline see them.
//   4. Every `.launch(` site passes a label as its first argument: a string
//      literal, or the `name` parameter of a labeled primitive wrapper.
//   5. Inside a launch region, assignment or increment of an identifier
//      that is not declared inside the region (i.e. mutation of captured
//      shared state that the per-element auditor cannot see) requires a
//      `// block-disjoint:` justification near the launch.
//   6. Every `obs::ScopedSpan` is constructed with a string-literal name, so
//      trace reports stay greppable and span names form a closed vocabulary.
//      A dynamic name needs a `// span-name-ok:` justification near the
//      construction.  (The obs/trace.h declarations themselves are exempt.)
//   7. The fused find-split wrappers (primitives/fused_split.h) label every
//      internal pass with a `fused_`-prefixed literal; the per-call phase-1
//      and argmax launches take the caller's `name` parameter.  Rules 4/5
//      apply to these launches like any other — the wrappers get no
//      exemption, only the extra prefix check.
//   8. The histogram kernels (primitives/histogram.h) label every launch
//      with a `hist_`-prefixed literal, same rationale and same
//      no-exemption policy as rule 7.
//   9. The serving layer (src/serve/) labels every launch and names every
//      `obs::ScopedSpan` with a `serve_`-prefixed literal, so request-path
//      device work is separable from training in traces, metrics and audit
//      reports.  Same no-exemption policy as rules 7/8.
//  10. Stream-aware async ops: every `launch_async` / `copy_to_device_async`
//      / `copy_to_host_async` call site labels itself with a `stream_`-
//      prefixed literal (so multi-stream work is separable in traces and
//      race reports), and every `wait_event` call carries a `// hb: <edge>`
//      comment nearby naming the happens-before edge it establishes.  The
//      device layer itself (device_context.h) and the race detector
//      (hb_race.*) are exempt — they define the machinery.
//  11. The objective/sampling layer (src/objective/) labels every launch
//      with an `obj_`- or `sample_`-prefixed literal and names every
//      `obs::ScopedSpan` with an `objective_` or `sampling_` prefix, so
//      gradient production and mask work stay separable in traces and
//      audit reports.  The layer also bans unseeded randomness sources
//      (`std::random_device`, `rand`, `srand`, `random_shuffle`,
//      `time(nullptr)`): every draw must derive from
//      GBDTParam::sampling_seed via splitmix64, or sampled forests stop
//      being bitwise-reproducible across trainer paths.
//  12. The multi-GPU collectives (src/multigpu/allreduce.h) stay greppable
//      under `comm_`: every `allreduce<...>(` invocation passes a
//      `comm_`-prefixed string-literal tag (the modeled wire legs derive
//      their labels from it, so comm traffic is separable from compute in
//      traces and race reports), and inside src/multigpu/ every direct
//      `peer_transfer_async(` site either labels itself with a `comm_`- or
//      `stream_`-prefixed literal or forwards the collective's `label`
//      parameter (the enqueue_leg machinery).
//  13. One split decision and one leaf rule: outside core/level_driver.cpp
//      (and baselines/xgb_exact.cpp, the independent CPU reference the
//      oracle checks the device trainers against) no file calls
//      the free `leaf_weight(` function or a `.split(` / `->split(` member
//      with arguments (Tree::split; DeviceForest::split() takes none).
//      Every trainer path goes through the shared level driver instead, so
//      the decision and the leaf weight cannot fork per path again.
//      Declarations and definitions (`double leaf_weight(`,
//      `Tree::split(`) are not calls.
//  14. No environment overrides of what trains: `getenv(` appears only in
//      the four checker and schedule toggles (analysis/access_audit.cpp,
//      analysis/hb_race.cpp, testing/invariants.cpp,
//      device/device_context.h).  Every training choice goes through
//      GBDTParam.
//
// Comments and string literals are blanked (length-preserving) before any
// rule other than the justification search runs, so prose never trips the
// scanner.  The mutation rule is a heuristic: subscripted stores (`x[i] =`)
// are exempt because the dynamic auditor checks them element-wise.
//
// Exit status: 0 when clean, 1 with one finding per line on stderr.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const std::string& file, std::size_t line, std::string msg) {
  g_findings.push_back({file, line, std::move(msg)});
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

/// Blank comments, string literals and char literals with spaces, keeping
/// offsets and line numbers identical to the raw text.
std::string strip(const std::string& in) {
  std::string out = in;
  enum class St { Code, Line, Block, Str, Chr };
  St st = St::Code;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::Code:
        if (c == '/' && next == '/') {
          st = St::Line;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::Block;
          out[i] = ' ';
        } else if (c == '"') {
          st = St::Str;
        } else if (c == '\'') {
          st = St::Chr;
        }
        break;
      case St::Line:
        if (c == '\n') {
          st = St::Code;
        } else {
          out[i] = ' ';
        }
        break;
      case St::Block:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::Str:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && next != '\n') out[++i] = ' ';
        } else if (c == '"') {
          st = St::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::Chr:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && next != '\n') out[++i] = ' ';
        } else if (c == '\'') {
          st = St::Code;
        } else {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Best-effort "is `name` declared inside this region": matches
/// `auto name`, builtin-type name, or `UpperCamel name` (custom types),
/// each optionally via reference/pointer.  Lambda parameters match too.
bool declared_in(const std::string& region, const std::string& name) {
  const std::string decl =
      "(?:\\bauto\\b|\\b(?:u?int(?:8|16|32|64)?_t|size_t|ptrdiff_t|int|long|"
      "short|bool|float|double|char|unsigned)\\b|\\b[A-Z]\\w*\\b)"
      "\\s*(?:<[^<>;]*>)?\\s*[&*]?\\s*\\b" +
      name + "\\b";
  if (std::regex_search(region, std::regex(decl))) return true;
  // Later declarator in a comma list: `std::int64_t lo = a, name = b;`.
  const std::string comma_decl = ",\\s*\\b" + name + "\\b\\s*(?:=|;|\\{)";
  return std::regex_search(region, std::regex(comma_decl));
}

/// Rule 5: captured-state mutation inside launch regions.
void check_region_mutations(const std::string& file, const std::string& raw,
                            const std::string& code, std::size_t region_lo,
                            std::size_t region_hi) {
  const std::string region = code.substr(region_lo, region_hi - region_lo);

  // Justification window: a few lines above the launch through its end.
  std::size_t window_lo = region_lo;
  for (int back = 0; back < 6 && window_lo > 0; ++back) {
    std::size_t prev = raw.rfind('\n', window_lo - 1);
    if (prev == std::string::npos) {
      window_lo = 0;
      break;
    }
    window_lo = prev;
  }
  const bool justified =
      raw.substr(window_lo, region_hi - window_lo).find("block-disjoint:") !=
      std::string::npos;
  if (justified) return;

  static const std::regex assign(
      R"(([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)*)\s*(\+\+|--|\+=|-=|\*=|/=|\|=|&=|\^=|=(?!=)))");
  for (auto it = std::sregex_iterator(region.begin(), region.end(), assign);
       it != std::sregex_iterator(); ++it) {
    const auto& m = *it;
    const std::size_t at = static_cast<std::size_t>(m.position(0));
    // Root of the LHS must start the expression: not a member, subscript
    // result, or part of a longer identifier.
    if (at > 0) {
      const char prev = region[at - 1];
      if (is_ident(prev) || prev == '.' || prev == ']' || prev == '>') {
        continue;
      }
    }
    const std::string root = m[1].str();
    if (root == "b") continue;  // BlockCtx accounting calls never match anyway
    if (declared_in(region, root)) continue;
    report(file, line_of(code, region_lo + at),
           "mutation of captured '" + root +
               "' inside a kernel without a `// block-disjoint:` "
               "justification near the launch");
  }
  // Prefix increment/decrement of a bare identifier.
  static const std::regex prefix(R"((\+\+|--)\s*([A-Za-z_]\w*)\b\s*([^\[\w]|$))");
  for (auto it = std::sregex_iterator(region.begin(), region.end(), prefix);
       it != std::sregex_iterator(); ++it) {
    const auto& m = *it;
    const std::string root = m[2].str();
    if (declared_in(region, root)) continue;
    report(file, line_of(code, region_lo + static_cast<std::size_t>(m.position(0))),
           "increment of captured '" + root +
               "' inside a kernel without a `// block-disjoint:` "
               "justification near the launch");
  }
}

void check_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string raw = ss.str();
  const std::string code = strip(raw);
  const std::string file = path.generic_string();
  const std::string fname = path.filename().generic_string();

  // Rule 1: headers use #pragma once.
  if (path.extension() == ".h" &&
      raw.find("#pragma once") == std::string::npos) {
    report(file, 1, "header without `#pragma once`");
  }

  // Rule 2: raw allocation primitives.  `= delete`d members are blanked
  // first; `.free()` / `->free()` member calls never match the \bfree\b
  // word-boundary check below because we require call position and no
  // member access before it.
  {
    std::string mem = code;
    static const std::regex deleted(R"(=\s*delete\b)");
    mem = std::regex_replace(mem, deleted, "         ");
    static const std::regex raw_alloc(
        R"(\b(new|delete|malloc|calloc|realloc|free)\b)");
    for (auto it = std::sregex_iterator(mem.begin(), mem.end(), raw_alloc);
         it != std::sregex_iterator(); ++it) {
      const auto& m = *it;
      const auto at = static_cast<std::size_t>(m.position(0));
      const std::string word = m[1].str();
      if (word == "malloc" || word == "calloc" || word == "realloc" ||
          word == "free") {
        // Member calls (buffer.free()) and declarations are fine; only a
        // free-function call position counts.
        std::size_t before = at;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(mem[before - 1]))) {
          --before;
        }
        if (before > 0 &&
            (mem[before - 1] == '.' ||
             (before > 1 && mem[before - 2] == '-' && mem[before - 1] == '>') ||
             (before > 1 && mem[before - 2] == ':' && mem[before - 1] == ':'))) {
          continue;
        }
        std::size_t after = at + word.size();
        while (after < mem.size() &&
               std::isspace(static_cast<unsigned char>(mem[after]))) {
          ++after;
        }
        if (after >= mem.size() || mem[after] != '(') continue;
        // libc free/malloc always take arguments: an empty argument list is
        // a member declaration or an unqualified member call.
        std::size_t arg = after + 1;
        while (arg < mem.size() &&
               std::isspace(static_cast<unsigned char>(mem[arg]))) {
          ++arg;
        }
        if (arg < mem.size() && mem[arg] == ')') continue;
      }
      report(file, line_of(code, at),
             "raw `" + word + "` — use DeviceAllocator / standard containers");
    }
  }

  // Rule 3: run_chunks stays inside the device launch machinery.
  {
    const bool allowed = file.find("src/device/thread_pool.") !=
                             std::string::npos ||
                         fname == "device_context.h";
    if (!allowed) {
      const std::size_t at = code.find("run_chunks");
      if (at != std::string::npos) {
        report(file, line_of(code, at),
               "direct `run_chunks` use — launch kernels through "
               "`dev.launch(\"label\", ...)`");
      }
    }
  }

  // Rules 4 + 5: launch sites.
  static const std::regex launch_re(R"(\.\s*launch\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), launch_re);
       it != std::sregex_iterator(); ++it) {
    const auto open = static_cast<std::size_t>(it->position(0)) +
                      static_cast<std::size_t>(it->length(0)) - 1;
    // First argument: a string literal (blanked to `"..."` shells by
    // strip(), so the quote survives) or the `name` identifier of a
    // labeled wrapper.
    std::size_t a = open + 1;
    while (a < code.size() &&
           std::isspace(static_cast<unsigned char>(code[a]))) {
      ++a;
    }
    const bool labeled =
        a < code.size() &&
        (code[a] == '"' ||
         (code.compare(a, 4, "name") == 0 && !is_ident(code[a + 4])));
    if (!labeled) {
      report(file, line_of(code, open),
             "`.launch(` without a label as first argument");
    }
    // Rule 7: the fused find-split wrappers label their internal passes
    // with a `fused_` prefix (the per-call phase-1 / argmax launches take
    // the caller's `name` parameter), so the whole family stays greppable
    // in trace and audit reports.  Literal contents live in `raw` — strip()
    // blanks them in `code`.
    if (fname == "fused_split.h" && labeled && code[a] == '"' &&
        raw.compare(a + 1, 6, "fused_") != 0) {
      report(file, line_of(code, open),
             "rule 7: fused_split.h launch label without `fused_` prefix");
    }
    // Rule 8: the histogram kernel family (primitives/histogram.h) keeps
    // the same greppable-prefix contract with `hist_`.
    if (fname == "histogram.h" && labeled && code[a] == '"' &&
        raw.compare(a + 1, 5, "hist_") != 0) {
      report(file, line_of(code, open),
             "rule 8: histogram.h launch label without `hist_` prefix");
    }
    // Rule 9: serving-layer launches keep the contract with `serve_`.
    if (file.find("/serve/") != std::string::npos && labeled &&
        code[a] == '"' && raw.compare(a + 1, 6, "serve_") != 0) {
      report(file, line_of(code, open),
             "rule 9: src/serve/ launch label without `serve_` prefix");
    }
    // Rule 11: objective-layer launches keep the contract with `obj_` /
    // `sample_` (gradient kernels vs. mask kernels).
    if (file.find("/objective/") != std::string::npos && labeled &&
        code[a] == '"' && raw.compare(a + 1, 4, "obj_") != 0 &&
        raw.compare(a + 1, 7, "sample_") != 0) {
      report(file, line_of(code, open),
             "rule 11: src/objective/ launch label without `obj_` or "
             "`sample_` prefix");
    }
    // Region end: matching close paren.
    int depth = 1;
    std::size_t end = open + 1;
    while (end < code.size() && depth > 0) {
      if (code[end] == '(') ++depth;
      if (code[end] == ')') --depth;
      ++end;
    }
    check_region_mutations(file, raw, code, open, end);
  }

  // Rule 10: async op labels + wait_event justification.  The device layer
  // and the race detector define the machinery and are exempt.
  if (fname != "device_context.h" && fname != "hb_race.h" &&
      fname != "hb_race.cpp") {
    static const std::regex async_re(
        R"([.>]\s*(launch_async|copy_to_device_async|copy_to_host_async)\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), async_re);
         it != std::sregex_iterator(); ++it) {
      const auto open = static_cast<std::size_t>(it->position(0)) +
                        static_cast<std::size_t>(it->length(0)) - 1;
      std::size_t a = open + 1;
      while (a < code.size() &&
             std::isspace(static_cast<unsigned char>(code[a]))) {
        ++a;
      }
      // Literal contents live in `raw` — strip() blanks them in `code`.
      const bool labeled = a < code.size() && code[a] == '"' &&
                           raw.compare(a + 1, 7, "stream_") == 0;
      if (!labeled) {
        report(file, line_of(code, open),
               "rule 10: `" + it->str(1) +
                   "(` without a `stream_`-prefixed label as first argument");
      }
    }
    static const std::regex wait_re(R"([.>]\s*wait_event\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), wait_re);
         it != std::sregex_iterator(); ++it) {
      const auto at = static_cast<std::size_t>(it->position(0));
      // Justification window: a few lines above the call through the end of
      // its line — a `// hb: <edge>` comment must name the edge this wait
      // establishes.
      std::size_t window_lo = at;
      for (int back = 0; back < 6 && window_lo > 0; ++back) {
        const std::size_t prev = raw.rfind('\n', window_lo - 1);
        if (prev == std::string::npos) {
          window_lo = 0;
          break;
        }
        window_lo = prev;
      }
      std::size_t window_hi = raw.find('\n', at);
      if (window_hi == std::string::npos) window_hi = raw.size();
      if (raw.substr(window_lo, window_hi - window_lo).find("hb:") !=
          std::string::npos) {
        continue;
      }
      report(file, line_of(code, at),
             "rule 10: `wait_event` without a `// hb: <edge>` justification "
             "naming the happens-before edge it establishes");
    }
  }

  // Rule 11: no unseeded randomness in the objective/sampling layer — the
  // masks must replay bitwise from GBDTParam::sampling_seed alone.
  if (file.find("/objective/") != std::string::npos) {
    static const std::regex rng_re(
        R"(\brandom_device\b|\brand\s*\(|\bsrand\s*\(|\brandom_shuffle\b|\btime\s*\(\s*nullptr\s*\))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), rng_re);
         it != std::sregex_iterator(); ++it) {
      report(file, line_of(code, static_cast<std::size_t>(it->position(0))),
             "rule 11: unseeded randomness in src/objective/ — derive every "
             "draw from GBDTParam::sampling_seed via splitmix64");
    }
  }

  // Rule 12: multi-GPU collective labels stay greppable under `comm_`.
  {
    static const std::regex coll_re(R"(\ballreduce\s*<[^;(]*>\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), coll_re);
         it != std::sregex_iterator(); ++it) {
      const auto open = static_cast<std::size_t>(it->position(0)) +
                        static_cast<std::size_t>(it->length(0)) - 1;
      std::size_t a = open + 1;
      while (a < code.size() &&
             std::isspace(static_cast<unsigned char>(code[a]))) {
        ++a;
      }
      // Literal contents live in `raw` — strip() blanks them in `code`.
      const bool ok = a < code.size() && code[a] == '"' &&
                      raw.compare(a + 1, 5, "comm_") == 0;
      if (!ok) {
        report(file, line_of(code, open),
               "rule 12: `allreduce<...>(` without a `comm_`-prefixed label as "
               "first argument");
      }
    }
    if (file.find("/multigpu/") != std::string::npos) {
      static const std::regex peer_re(R"([.>]\s*peer_transfer_async\s*\()");
      for (auto it = std::sregex_iterator(code.begin(), code.end(), peer_re);
           it != std::sregex_iterator(); ++it) {
        const auto open = static_cast<std::size_t>(it->position(0)) +
                          static_cast<std::size_t>(it->length(0)) - 1;
        std::size_t a = open + 1;
        while (a < code.size() &&
               std::isspace(static_cast<unsigned char>(code[a]))) {
          ++a;
        }
        const bool literal_ok = a < code.size() && code[a] == '"' &&
                                (raw.compare(a + 1, 5, "comm_") == 0 ||
                                 raw.compare(a + 1, 7, "stream_") == 0);
        const bool forwards_label =
            a + 5 < code.size() && code.compare(a, 5, "label") == 0 &&
            !is_ident(code[a + 5]);
        if (!literal_ok && !forwards_label) {
          report(file, line_of(code, open),
                 "rule 12: src/multigpu/ `peer_transfer_async(` without a "
                 "`comm_`/"
                 "`stream_`-prefixed label (or the forwarded `label` "
                 "parameter) as first argument");
        }
      }
    }
  }

  // Rule 13: the level driver owns the split decision and the leaf rule.
  if (!file.ends_with("core/level_driver.cpp") &&
      !file.ends_with("baselines/xgb_exact.cpp")) {
    static const std::regex leaf_re(R"(\bleaf_weight\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), leaf_re);
         it != std::sregex_iterator(); ++it) {
      // Walk back over a qualified name (`ns::`, `Class::`) and spaces; a
      // member access is not the free function, and a preceding type name
      // (anything but `return`) makes this a declaration.
      std::size_t b = static_cast<std::size_t>(it->position(0));
      const auto skip_space = [&] {
        while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1]))) {
          --b;
        }
      };
      skip_space();
      if (b > 0 && (code[b - 1] == '.' ||
                    (b > 1 && code[b - 2] == '-' && code[b - 1] == '>'))) {
        continue;
      }
      while (b > 1 && code[b - 1] == ':' && code[b - 2] == ':') {
        b -= 2;
        skip_space();
        while (b > 0 && is_ident(code[b - 1])) --b;
        skip_space();
      }
      std::size_t w = b;
      while (w > 0 && is_ident(code[w - 1])) --w;
      if (w < b && code.compare(w, b - w, "return") != 0) continue;
      report(file, line_of(code, static_cast<std::size_t>(it->position(0))),
             "rule 13: free `leaf_weight(` call outside core/level_driver.cpp "
             "— leaves go through detail::leaf_node");
    }
    static const std::regex split_re(R"((\.|->)\s*split\s*\(\s*[^\s)])");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), split_re);
         it != std::sregex_iterator(); ++it) {
      report(file, line_of(code, static_cast<std::size_t>(it->position(0))),
             "rule 13: `.split(` call with arguments outside "
             "core/level_driver.cpp — splits go through detail::decide_level");
    }
  }

  // Rule 14: environment variables toggle checkers and stream scheduling
  // only, never what trains.
  if (!file.ends_with("analysis/access_audit.cpp") &&
      !file.ends_with("analysis/hb_race.cpp") &&
      !file.ends_with("testing/invariants.cpp") &&
      !file.ends_with("device/device_context.h")) {
    static const std::regex getenv_re(R"(\bgetenv\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), getenv_re);
         it != std::sregex_iterator(); ++it) {
      report(file, line_of(code, static_cast<std::size_t>(it->position(0))),
             "rule 14: `getenv(` outside the checker and schedule toggles — "
             "training choices go through GBDTParam");
    }
  }

  // Rule 6: ScopedSpan names are string literals (declaration site exempt).
  if (fname != "trace.h" && fname != "trace.cpp") {
    static const std::regex span_re(R"(\bScopedSpan\b)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), span_re);
         it != std::sregex_iterator(); ++it) {
      std::size_t j = static_cast<std::size_t>(it->position(0)) +
                      static_cast<std::size_t>(it->length(0));
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      // Optional variable name of a declaration.
      if (j < code.size() && is_ident(code[j]) ) {
        while (j < code.size() && is_ident(code[j])) ++j;
        while (j < code.size() &&
               std::isspace(static_cast<unsigned char>(code[j]))) {
          ++j;
        }
      }
      if (j >= code.size() || (code[j] != '(' && code[j] != '{')) continue;
      const std::size_t open_at = j;
      ++j;
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      if (j < code.size() && code[j] == '"') {
        // Rule 9: serving-layer spans carry the `serve_` prefix so the
        // request path stays separable from training in trace reports.
        if (file.find("/serve/") != std::string::npos &&
            raw.compare(j + 1, 6, "serve_") != 0) {
          report(file, line_of(code, j),
                 "rule 9: src/serve/ ScopedSpan name without `serve_` prefix");
        }
        // Rule 11: objective-layer spans carry `objective_` / `sampling_`.
        if (file.find("/objective/") != std::string::npos &&
            raw.compare(j + 1, 10, "objective_") != 0 &&
            raw.compare(j + 1, 9, "sampling_") != 0) {
          report(file, line_of(code, j),
                 "rule 11: src/objective/ ScopedSpan name without `objective_` "
                 "or `sampling_` prefix");
        }
        continue;
      }
      // Justification window: a few lines above through the closing paren.
      std::size_t end = open_at + 1;
      int depth = 1;
      const char close = code[open_at] == '(' ? ')' : '}';
      const char open_ch = code[open_at];
      while (end < code.size() && depth > 0) {
        if (code[end] == open_ch) ++depth;
        if (code[end] == close) --depth;
        ++end;
      }
      std::size_t window_lo = open_at;
      for (int back = 0; back < 6 && window_lo > 0; ++back) {
        const std::size_t prev = raw.rfind('\n', window_lo - 1);
        if (prev == std::string::npos) {
          window_lo = 0;
          break;
        }
        window_lo = prev;
      }
      if (raw.substr(window_lo, end - window_lo).find("span-name-ok:") !=
          std::string::npos) {
        continue;
      }
      report(file, line_of(code, open_at),
             "rule 6: ScopedSpan name must be a string literal (or add a "
             "`// span-name-ok:` justification)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) roots.emplace_back(argv[i]);
  if (roots.empty()) roots.emplace_back("src");

  for (const auto& root : roots) {
    if (!fs::exists(root)) {
      std::fprintf(stderr, "gbdt_lint: no such path: %s\n",
                   root.generic_string().c_str());
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cpp") check_file(entry.path());
    }
  }

  for (const auto& f : g_findings) {
    std::fprintf(stderr, "%s:%zu: %s\n", f.file.c_str(), f.line, f.message.c_str());
  }
  if (!g_findings.empty()) {
    std::fprintf(stderr, "gbdt_lint: %zu finding(s)\n", g_findings.size());
    return 1;
  }
  return 0;
}
